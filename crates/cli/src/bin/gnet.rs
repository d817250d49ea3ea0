//! `gnet` — construct and analyse whole-genome MI networks. `gnet help`
//! lists the fourteen subcommands with every option and rule, rendered
//! from their option tables.
//!
//! Every message goes out through writes that drop their errors, so a
//! closed stdout or stderr (`gnet … 2>&1 | head -1`) never panics: the
//! process still exits with its own status, 2 for a usage error and 1
//! for a failed command. A command's report lines go to a stdout that
//! drops `BrokenPipe` errors, so a reader that has gone does not cost a
//! run its result (`gnet infer … --output e.tsv | head -1` still writes
//! `e.tsv`); any other write error still fails the command.

use gnet_cli::{usage, ArgError, ArgMap, COMMANDS};
use gnet_trace::{diag_chunk, diag_line};
use std::io::{self, Write};

/// A writer that reports a `BrokenPipe` write as done.
struct PipeTolerant<W>(W);

impl<W: Write> Write for PipeTolerant<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.0.write(buf) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(buf.len()),
            written => written,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.0.flush() {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
            flushed => flushed,
        }
    }
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let sub = argv.next();
    let Some(cmd) = COMMANDS.iter().find(|c| Some(c.name) == sub.as_deref()) else {
        match sub.as_deref() {
            Some("help" | "--help" | "-h") => {
                let _ = io::stdout().write_all(usage(COMMANDS).as_bytes());
                return;
            }
            Some(other) => diag_line(&format!("error: unknown subcommand {other:?}\n")),
            None => {}
        }
        diag_chunk(&usage(COMMANDS));
        std::process::exit(2);
    };
    let mut tokens: Vec<String> = argv.collect();
    // `gnet status 127.0.0.1:8080` / `gnet status run/status.json`:
    // a leading bare token is sugar for --target.
    if cmd.name == "status" && tokens.first().is_some_and(|t| !t.starts_with("--")) {
        tokens.insert(0, "--target".to_string());
    }
    let result = match ArgMap::parse(cmd, tokens) {
        Ok(args) => (cmd.run)(&args, &mut PipeTolerant(io::stdout().lock())),
        Err(ArgError::Syntax(e)) => {
            diag_line(&format!("error: {e}\n"));
            diag_chunk(&usage(std::slice::from_ref(cmd)));
            std::process::exit(2);
        }
        Err(e) => Err(e.into()),
    };
    if let Err(e) = result {
        diag_line(&format!("error: {e}"));
        std::process::exit(1);
    }
}
