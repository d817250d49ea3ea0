//! Command implementations behind the `gnet` binary.
//!
//! Everything lives in the library so the commands are unit-testable; the
//! binary (`src/bin/gnet.rs`) only picks a [`Command`] from [`COMMANDS`],
//! parses `std::env::args` against its option table into an [`ArgMap`]
//! and runs it. Each subcommand declares its options once, in that table
//! ([`args`]); the parser, the presence rules, the usage text and the
//! `ConfigError` field-to-flag lookup all read it.

#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{usage, ArgError, ArgMap, Command};
pub use commands::{CliError, COMMANDS};
