//! Line-buffered stderr diagnostics shared by every rank and thread.
//!
//! Multi-process runs (`gnet worker` meshes) and multi-threaded harnesses all
//! write human-facing diagnostics to stderr. Bare `eprintln!` calls issue one
//! `write` syscall per formatting fragment, so two ranks printing at once can
//! interleave *partial* lines. Everything user-facing funnels through this
//! module instead: the message is fully formatted into a `String` first, then
//! emitted with a single `write_all` under a process-wide mutex, so concurrent
//! writers can interleave only whole messages.
//!
//! Two entry points cover the two shapes of diagnostic output:
//! [`diag_line`] appends a trailing newline (ordinary log lines), while
//! [`diag_chunk`] writes the text exactly as given (carriage-return progress
//! bars that repaint in place).
//!
//! Both are best-effort: stderr write errors are dropped — unlike
//! `eprintln!`, which panics when stderr is closed (`gnet … 2>&1 | head -1`)
//! — and a poisoned lock is recovered rather than propagated: losing a
//! diagnostic must never take the computation down with it.

use std::io::Write;
use std::sync::{Mutex, PoisonError};

/// Process-wide serialization point for stderr diagnostics.
static DIAG: Mutex<()> = Mutex::new(());

/// Write `text` and a trailing newline to stderr as one atomic chunk.
///
/// Use this for ordinary diagnostic lines ("status listening on …",
/// rank-tagged warnings). The full line is emitted with a single `write_all`
/// under the process-wide diagnostics lock, so lines from concurrent threads
/// never interleave mid-line.
pub fn diag_line(text: &str) {
    let mut buf = String::with_capacity(text.len() + 1);
    buf.push_str(text);
    buf.push('\n');
    write_locked(buf.as_bytes());
}

/// Write `text` to stderr exactly as given, as one atomic chunk.
///
/// Use this for in-place progress repaints that begin with `\r` and carry no
/// trailing newline. The chunk is emitted with a single `write_all` under the
/// same lock as [`diag_line`], so a repaint can never split another line.
pub fn diag_chunk(text: &str) {
    write_locked(text.as_bytes());
}

fn write_locked(bytes: &[u8]) {
    let _guard = DIAG.lock().unwrap_or_else(PoisonError::into_inner);
    let mut err = std::io::stderr().lock();
    // Diagnostics are best-effort: a closed or full stderr must not abort the
    // run, so write errors are deliberately dropped.
    let _ = err.write_all(bytes);
    let _ = err.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diag_calls_do_not_panic_or_deadlock() {
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    for n in 0..16 {
                        if n % 2 == 0 {
                            diag_chunk(&format!("\r[test-diag {i}] chunk {n}"));
                        } else {
                            diag_line(&format!("[test-diag {i}] line {n}"));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("diag writer thread panicked");
        }
        diag_chunk("\r");
        diag_line("[test-diag] done");
    }
}
