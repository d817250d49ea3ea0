//! `gnet` — construct and analyse whole-genome MI networks. `gnet help`
//! lists the fourteen subcommands with every option and rule, rendered
//! from their option tables.

use gnet_cli::{usage, ArgError, ArgMap, COMMANDS};

fn main() {
    let mut argv = std::env::args().skip(1);
    let sub = argv.next();
    let Some(cmd) = COMMANDS.iter().find(|c| Some(c.name) == sub.as_deref()) else {
        match sub.as_deref() {
            Some("help" | "--help" | "-h") => return print!("{}", usage(COMMANDS)),
            Some(other) => eprintln!("error: unknown subcommand {other:?}\n"),
            None => {}
        }
        eprint!("{}", usage(COMMANDS));
        std::process::exit(2);
    };
    let mut tokens: Vec<String> = argv.collect();
    // `gnet status 127.0.0.1:8080` / `gnet status run/status.json`:
    // a leading bare token is sugar for --target.
    if cmd.name == "status" && tokens.first().is_some_and(|t| !t.starts_with("--")) {
        tokens.insert(0, "--target".to_string());
    }
    let result = match ArgMap::parse(cmd, tokens) {
        Ok(args) => (cmd.run)(&args, &mut std::io::stdout().lock()),
        Err(ArgError::Syntax(e)) => {
            eprintln!("error: {e}\n");
            eprint!("{}", usage(std::slice::from_ref(cmd)));
            std::process::exit(2);
        }
        Err(e) => Err(e.into()),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
