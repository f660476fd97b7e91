//! `kpj-servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a stamp line, then, as the last line of standard output, one
//! JSON result: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! End-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. The report and (traced) span dump are written under
//! `$CARGO_TARGET_DIR/servebench-runs/` (default `servebench/target`).

use std::path::PathBuf;
use std::process::ExitCode;

use kpj_servebench::workload::{Kind, Scale};
use kpj_servebench::{host, run, Args};

const USAGE: &str =
    "usage: kpj-servebench --workload <road-cold|road-hot-update|social-k100|huge-mmap> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| host::tree_root().join("servebench").join("target"));
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        scale: Scale::Full,
        out_dir: target.join("servebench-runs"),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kpj-servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("kpj-servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let base = args.out_dir.join(format!(
        "{}-seed{}-trace{}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let line = outcome.result_line();
    let report = format!("{{\"stamp\":{},\"result\":{line}}}\n", outcome.stamp);
    let mut written = std::fs::write(base.with_extension("json"), report);
    if args.trace {
        written = written.and(std::fs::write(
            base.with_extension("spans.jsonl"),
            outcome.spans.to_jsonl(),
        ));
    }
    if let Err(e) = written {
        eprintln!("kpj-servebench: cannot write the report: {e}");
        return ExitCode::FAILURE;
    }
    println!("{{\"stamp\":{}}}", outcome.stamp);
    println!("{line}");
    ExitCode::SUCCESS
}
