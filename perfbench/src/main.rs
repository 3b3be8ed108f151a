//! Benchmark harness for `reproduce_all` and the print shop.
//!
//! `run.py` builds and drives this binary; it is not meant to be run by
//! hand, but it can be:
//!
//! ```sh
//! perfbench shop --warmup w.jsonl --timed t.jsonl --dir data --out r.json \
//!     --samples s.txt --seconds 10 --trace 0
//! perfbench reproduce-pass --out pass.json
//! perfbench calibrate
//! ```
//!
//! `shop` hosts a `ShopService` in this process, measures set-up and a
//! closed-loop timed phase over TCP, checks every reply, and, when asked,
//! replays the same requests in-process through the shop's public
//! functions to time each layer. `reproduce-pass` runs `reproduce_all`'s
//! eval stages once in-process, timing each call. Both write one JSON
//! object to `--out`; `run.py` turns it into metrics. `calibrate` prints
//! the host's slowness on the calling core (see `calibrate.rs`).

mod calibrate;
mod reproduce;
mod shop;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("shop") => shop::run(&args[1..]),
        Some("reproduce-pass") => reproduce::run(&args[1..]),
        Some("calibrate") => {
            println!("{}", calibrate::slowness());
            Ok(())
        }
        _ => {
            Err("usage: perfbench shop <options> | reproduce-pass --out <file> | calibrate".into())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The value following `--name` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

/// `--name` parsed as a number.
fn number<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag(args, name)?.parse().map_err(|_| format!("{name} is not a number"))
}

/// Milliseconds in a duration, as a float.
fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Aggregated span time of one program span name, over every path it was
/// recorded under (spans nest, so the same name appears under several
/// parents). With `outermost`, a path nested inside another path of the
/// same set is skipped so no time is counted twice.
#[derive(Debug, Default, Clone, Copy)]
struct SpanTotal {
    calls: u64,
    total_ns: u64,
    max_ns: u64,
}

impl SpanTotal {
    fn add(&mut self, other: SpanTotal) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

fn span_total(names: &[&str]) -> SpanTotal {
    let matches = |path: &str| {
        names.iter().find(|n| path == **n || path.ends_with(&format!(".{n}"))).copied()
    };
    let mut total = SpanTotal::default();
    for (path, stats) in printed_microprocessors::obs::global().snapshot_spans() {
        let Some(name) = matches(&path) else { continue };
        let parent = &path[..path.len() - name.len()];
        if names.iter().any(|n| parent.contains(n)) {
            continue;
        }
        total.calls += stats.count;
        total.total_ns += stats.total_ns;
        total.max_ns = total.max_ns.max(stats.max_ns);
    }
    total
}
