//! One option table per `gnet` subcommand ([`Command`]: [`Opt`] and
//! [`Rule`] rows, declared one line each with `commands!`), the parser
//! that reads it ([`ArgMap`]) and the usage it renders ([`usage`]). A
//! command reading an option its table lacks panics, so every test that
//! reaches the read fails.

use crate::commands::CliError;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::num::{IntErrorKind, ParseIntError};
use std::str::FromStr;

type Str = &'static str;

/// What an option takes on the command line. A metavar of the form
/// `a|b|c` lists the only values the option accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A bare `--name`, off unless given.
    Flag,
    /// `--name METAVAR`, which must be given.
    Required(Str),
    /// `--name METAVAR`, and the value used when it is left out, if any.
    Value(Str, Option<Str>),
}

/// One row of an option table.
#[derive(Clone, Copy, Debug)]
pub struct Opt {
    /// The name, without its leading `--`.
    pub name: Str,
    /// What it takes.
    pub kind: Kind,
    /// Its help line.
    pub help: Str,
    /// The `InferenceConfig` field it fills, if any.
    pub field: Option<Str>,
}

/// A `&[Command]` declared one line per option and per rule. A command is
/// `"name" => run: "about" { options } rules { rules };`, the `rules`
/// block optional. An option is its kind (`flag`, `required`, `optional`
/// or `value`), its name, then for all but a flag its metavar and, for a
/// `value`, `= "default"`; then `: "help"` and, if it fills one,
/// `=> field` of `InferenceConfig`. A rule is `Requires` or `Excludes`,
/// two lists of option names and `: reason`.
macro_rules! commands {
    (@kind flag) => { $crate::args::Kind::Flag };
    (@kind required $m:literal) => { $crate::args::Kind::Required($m) };
    (@kind optional $m:literal) => { $crate::args::Kind::Value($m, None) };
    (@kind value $m:literal = $d:literal) => { $crate::args::Kind::Value($m, Some($d)) };
    (@field) => { None };
    (@field $f:ident) => { Some(stringify!($f)) };
    ($(
        $c:literal => $run:ident: $about:literal {
            $($kind:ident $n:literal $($m:literal $(= $d:literal)?)?: $help:literal
                $(=> $field:ident)?;)*
        } $(rules {
            $($rule:ident [$($a:literal),*] [$($b:literal),*]: $why:expr;)*
        })?;
    )*) => {
        &[$($crate::args::Command {
            name: $c,
            about: $about,
            run: $run,
            opts: &[$($crate::args::Opt {
                name: $n,
                kind: $crate::args::commands!(@kind $kind $($m $(= $d)?)?),
                help: $help,
                field: $crate::args::commands!(@field $($field)?),
            },)*],
            rules: &[$($($crate::args::Rule::$rule(&[$($a),*], &[$($b),*], $why),)*)?],
        },)*]
    };
}
pub(crate) use commands;

/// A presence rule between options, checked in table order once the
/// command line parses. Its last field is the reason: the error message,
/// which names the options.
#[derive(Clone, Copy, Debug)]
pub enum Rule {
    /// Any of the first options needs one of the second; with no first
    /// options, one of the second is always needed.
    Requires(&'static [Str], &'static [Str], Str),
    /// Any of the first options excludes every one of the second.
    Excludes(&'static [Str], &'static [Str], Str),
}

impl Rule {
    /// Why the rule holds, as its error states it.
    pub fn reason(&self) -> Str {
        let (Self::Requires(.., reason) | Self::Excludes(.., reason)) = *self;
        reason
    }
}

/// A `gnet` subcommand: its option table and the code that runs it.
#[derive(Debug)]
pub struct Command {
    /// The subcommand's name.
    pub name: Str,
    /// What it does, in one line.
    pub about: Str,
    /// Its options, in the order the usage lists them.
    pub opts: &'static [Opt],
    /// Its requires/excludes rules, in the order they are checked.
    pub rules: &'static [Rule],
    /// Runs it on a parsed command line, writing its report.
    pub run: fn(&ArgMap, &mut dyn std::io::Write) -> Result<(), CliError>,
}

/// Why a command line was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// The tokens do not parse: a bare word that follows no option, an
    /// empty option name, or an option given a value twice. `gnet` prints
    /// the usage and exits 2.
    Syntax(String),
    /// The tokens parse but break the table: an unknown or repeated
    /// option, a flag given a value, a value option given none, a missing
    /// option, a broken rule or a bad value. `gnet` exits 1.
    Invalid(String),
}

/// A command line parsed against its command's table.
#[derive(Clone, Debug)]
pub struct ArgMap {
    command: &'static Command,
    /// Each option given, with its value (none for a flag).
    given: BTreeMap<String, Option<String>>,
}

impl ArgMap {
    /// Parse `tokens` against `command`'s table, then check that every
    /// required option is there and the rules hold. Tokens pair as
    /// `--name [value]` whatever the table says; a pair that breaks its
    /// row (a flag given a value, a value option given none, a choice
    /// its metavar does not list) is refused, but a syntax error anywhere
    /// in the line wins over such a refusal before it.
    pub fn parse(command: &'static Command, tokens: Vec<String>) -> Result<Self, ArgError> {
        use ArgError::{Invalid, Syntax};
        let mut given = BTreeMap::new();
        let mut refusal = None;
        let mut tokens = tokens.into_iter().peekable();
        while let Some(tok) = tokens.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(Syntax(format!("unexpected bare argument {tok:?}")));
            };
            if name.is_empty() {
                return Err(Syntax("empty option name".into()));
            }
            let value = tokens.next_if(|t| !t.starts_with("--"));
            let kind = command.opts.iter().find(|o| o.name == name).map(|o| o.kind);
            let why = match (kind, &value) {
                (None, _) => Some(format!("unknown option --{name}")),
                (Some(Kind::Flag), Some(v)) => {
                    Some(format!("--{name} takes no value, but {v:?} follows it"))
                }
                (Some(Kind::Required(m) | Kind::Value(m, _)), None) => {
                    Some(format!("--{name} needs a value ({m})"))
                }
                (Some(Kind::Required(m) | Kind::Value(m, _)), Some(v))
                    if m.contains('|') && !m.split('|').any(|choice| choice == v) =>
                {
                    Some(format!("bad --{name} {v:?}: expected {m}"))
                }
                _ => None,
            };
            refusal = refusal.or(why);
            let twice = value.is_some();
            match given.insert(name.to_string(), value) {
                Some(Some(_)) if twice => {
                    return Err(Syntax(format!("duplicate option --{name}")));
                }
                Some(_) => refusal = refusal.or(Some(format!("duplicate option --{name}"))),
                None => {}
            }
        }
        if let Some(why) = refusal {
            return Err(Invalid(why));
        }
        let any = |names: &[Str]| names.iter().any(|n| given.contains_key(*n));
        for opt in command.opts {
            if matches!(opt.kind, Kind::Required(_)) && !given.contains_key(opt.name) {
                return Err(Invalid(format!("missing required option --{}", opt.name)));
            }
        }
        for rule in command.rules {
            let broken = match *rule {
                Rule::Requires(when, others, _) => (when.is_empty() || any(when)) && !any(others),
                Rule::Excludes(when, others, _) => any(when) && any(others),
            };
            if broken {
                return Err(Invalid(rule.reason().to_string()));
            }
        }
        Ok(Self { command, given })
    }

    /// The row of `name`. Reading an option the table lacks is a bug in
    /// the command, so it panics.
    fn row(&self, name: &str) -> &'static Opt {
        let (command, rows) = (self.command.name, self.command.opts);
        let row = rows.iter().find(|o| o.name == name);
        row.unwrap_or_else(|| panic!("gnet {command} reads --{name}, which its table lacks"))
    }

    /// Was the flag `--name` given?
    pub fn flag(&self, name: &str) -> bool {
        assert_eq!(self.row(name).kind, Kind::Flag, "--{name} takes a value");
        self.given.contains_key(name)
    }

    /// The value of `--name` as given, else its default.
    pub fn get(&self, name: &str) -> Option<&str> {
        let default = match self.row(name).kind {
            Kind::Flag => panic!("--{name} is a flag; read it with ArgMap::flag"),
            Kind::Required(_) => None,
            Kind::Value(_, default) => default,
        };
        self.given.get(name).map_or(default, Option::as_deref)
    }

    /// [`Self::get`] parsed as `T`; a value that does not parse is an
    /// error naming the option, and a zero for a `NonZero*` type says
    /// that the option must be at least 1.
    pub fn parsed<T: FromStr<Err: Display + 'static>>(
        &self,
        name: &str,
    ) -> Result<Option<T>, ArgError> {
        let parse = |raw: &str| {
            raw.parse().map_err(|e: T::Err| {
                let zero = (&e as &dyn Any).downcast_ref::<ParseIntError>();
                ArgError::Invalid(match zero.map(ParseIntError::kind) {
                    Some(IntErrorKind::Zero) => format!("--{name} must be at least 1"),
                    _ => format!("bad --{name} {raw:?}: {e}"),
                })
            })
        };
        self.get(name).map(parse).transpose()
    }

    /// The option that fills `field` of `InferenceConfig`; `field`
    /// itself when none does.
    pub fn option_for(&self, field: Str) -> Str {
        let row = self.command.opts.iter().find(|o| o.field == Some(field));
        row.map_or(field, |o| o.name)
    }

    /// [`Self::parsed`] of an option that always has a value: a
    /// required one or one with a default.
    pub fn value<T: FromStr<Err: Display + 'static>>(&self, name: &str) -> Result<T, ArgError> {
        let value = self.parsed(name)?;
        Ok(value.unwrap_or_else(|| panic!("--{name} has no default and is not required")))
    }
}

/// The help text of `commands`, rendered from their tables.
pub fn usage(commands: &[Command]) -> String {
    let mut text = String::from(
        "gnet — whole-genome mutual-information network construction\n\n\
         usage: gnet <command> [options]\n",
    );
    for c in commands {
        let _ = write!(text, "\n{}  {}\n", c.name, c.about);
        for o in c.opts {
            let (head, note) = match o.kind {
                Kind::Flag => (o.name.to_string(), String::new()),
                Kind::Required(m) => (format!("{} {m}", o.name), " (required)".into()),
                Kind::Value(m, d) => (
                    format!("{} {m}", o.name),
                    d.map_or(String::new(), |d| format!(" [default: {d}]")),
                ),
            };
            let _ = writeln!(text, "    --{head:<26} {}{note}", o.help);
        }
        for rule in c.rules {
            let _ = writeln!(text, "    rule: {}", rule.reason());
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(_: &ArgMap, _: &mut dyn std::io::Write) -> Result<(), CliError> {
        Ok(())
    }

    const DEMO: &[Command] = commands! {
        "demo" => run: "a demo command" {
            required "input" "FILE": "input file";
            value "genes" "N" = "10": "genes";
            optional "ranks" "P": "ranks";
            value "kernel" "vector|scalar" = "vector": "kernel";
            flag "quick": "quick mode";
            flag "resume": "resume";
        } rules {
            Requires ["resume"] ["ranks"]: "--resume needs --ranks";
        };
    };

    fn parse(tokens: &[&str]) -> Result<ArgMap, ArgError> {
        ArgMap::parse(&DEMO[0], tokens.iter().map(|t| t.to_string()).collect())
    }

    #[test]
    fn values_flags_and_defaults() {
        let a = parse(&["--input", "m.tsv", "--quick", "--ranks", "-3"]).unwrap();
        assert_eq!(a.get("input"), Some("m.tsv"));
        assert_eq!(
            a.value::<usize>("genes").unwrap(),
            10,
            "the table's default"
        );
        assert_eq!(
            a.parsed::<i32>("ranks").unwrap(),
            Some(-3),
            "a value may start with -"
        );
        assert_eq!(a.get("kernel"), Some("vector"));
        assert!(a.flag("quick") && !a.flag("resume"));
        let a = parse(&["--input", "m.tsv", "--genes", "many"]).unwrap();
        let err = a.value::<usize>("genes").unwrap_err();
        assert!(
            matches!(&err, ArgError::Invalid(m) if m.contains("--genes")),
            "{err:?}"
        );
        let a = parse(&["--input", "m.tsv", "--genes", "0"]).unwrap();
        let err = a.value::<std::num::NonZeroUsize>("genes").unwrap_err();
        assert_eq!(err, ArgError::Invalid("--genes must be at least 1".into()));
    }

    #[test]
    fn words_that_pair_with_no_option_and_second_values_are_syntax_errors() {
        for (tokens, flag) in [
            (
                &["--input", "m.tsv", "--genes", "4", "--genes", "5"][..],
                "--genes",
            ),
            (
                &["--input", "m.tsv", "--quick", "1", "--quick", "2"],
                "--quick",
            ),
            (&["stray", "--input", "m.tsv"], "stray"),
            (&["--input", "m.tsv", "x", "y"], "\"x\""),
            (&["--"], "empty option name"),
            // A syntax error later in the line wins over a refusal.
            (&["--input", "m.tsv", "--quick", "1", "stray"], "stray"),
        ] {
            match parse(tokens) {
                Err(ArgError::Syntax(m)) => assert!(m.contains(flag), "{tokens:?}: {m}"),
                other => panic!("{tokens:?}: expected a syntax error, got {other:?}"),
            }
        }
    }

    #[test]
    fn kind_mismatches_unknown_missing_rules_and_bad_choices_are_refused() {
        for (tokens, message) in [
            (
                &["--input", "m.tsv", "--quick", "1"][..],
                "--quick takes no value",
            ),
            (
                &["--input", "m.tsv", "--ranks"],
                "--ranks needs a value (P)",
            ),
            (&["--input", "--genes", "4"], "--input needs a value (FILE)"),
            (
                &["--input", "m.tsv", "--quick", "--quick"],
                "duplicate option --quick",
            ),
            (
                &["--input", "m.tsv", "--genes", "4", "--genes"],
                "--genes needs a value",
            ),
            (
                &["--input", "m.tsv", "--tyop", "7"],
                "unknown option --tyop",
            ),
            (&["--genes", "4"], "missing required option --input"),
            (&["--input", "m.tsv", "--resume"], "--resume needs --ranks"),
            (
                &["--input", "m.tsv", "--kernel", "gpu"],
                "bad --kernel \"gpu\"",
            ),
        ] {
            match parse(tokens) {
                Err(ArgError::Invalid(m)) => assert!(m.contains(message), "{tokens:?}: {m}"),
                other => panic!("{tokens:?}: expected a refusal, got {other:?}"),
            }
        }
        assert!(parse(&["--input", "m.tsv", "--resume", "--ranks", "2"]).is_ok());
    }

    #[test]
    #[should_panic(expected = "gnet demo reads --typo, which its table lacks")]
    fn reading_an_undeclared_option_panics() {
        parse(&["--input", "m.tsv"]).unwrap().flag("typo");
    }

    #[test]
    #[should_panic(expected = "--quick is a flag")]
    fn reading_a_flag_as_a_value_panics() {
        let _ = parse(&["--input", "m.tsv"]).unwrap().get("quick");
    }

    #[test]
    fn usage_shows_metavars_defaults_and_rules() {
        let text = usage(DEMO);
        for line in [
            "demo  a demo command",
            "--input FILE",
            "input file (required)",
            "--genes N",
            "genes [default: 10]",
            "--kernel vector|scalar",
            "--quick",
            "rule: --resume needs --ranks",
        ] {
            assert!(text.contains(line), "{line:?} missing from\n{text}");
        }
    }
}
