//! The repository's regression benchmark (see `README.md` beside this
//! package). One invocation runs one workload:
//!
//! ```text
//! perfbench --workload <tpcc_contended|transfer_scaleout|smallbank_durable>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! also makes a traced, checked run and prints the per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The line before it, `{"info": {...}}`, records what ran. Spans of
//! every call into a layer are written to `out/spans-*.jsonl`.

mod run;
mod spans;
mod trace;
mod workload;

use run::Settings;
use serde::json::{render, Value};
use spans::Spans;
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Duration;
use workload::Kind;

/// Environment knobs that would change what the program does. The
/// benchmark pins every one of them in code and refuses to run when any
/// is set, so a result never depends on the caller's shell.
const REFUSED_ENV: [&str; 10] = [
    "CHILLER_WAL",
    "CHILLER_FSYNC_BATCH",
    "CHILLER_TRACE",
    "CHILLER_TRACE_BUF",
    "CHILLER_CHECK",
    "CHILLER_CHECK_BUF",
    "CHILLER_WORKERS",
    "CHILLER_MAILBOX",
    "CHILLER_PIN",
    "CHILLER_SMOKE",
];

/// A run that has printed no result by now has hung inside the program;
/// it is ended as failed, inside the 180 s a run may take.
const DEADLINE: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: perfbench --workload <tpcc_contended|transfer_scaleout|\
                     smallbank_durable> --seed <n> --seconds <1..=60> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Settings, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("seconds must be 1..=60, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Settings {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn refused_env() -> Vec<&'static str> {
    REFUSED_ENV
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse_args(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let refused = refused_env();
    if !refused.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the benchmark pins these settings in code",
            refused.join(", ")
        );
        return ExitCode::from(2);
    }
    let mut spans = Spans::new();
    let open = spans.open_names();
    // Detached on purpose: it either ends the process or dies with it.
    std::thread::spawn(move || {
        std::thread::sleep(DEADLINE);
        let open = open.lock().map(|o| o.join(" > ")).unwrap_or_default();
        eprintln!(
            "perfbench: no result after {}s; hung inside: {open}",
            DEADLINE.as_secs()
        );
        std::process::exit(3);
    });
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| run::run(&settings, &mut spans)));
    let spans_file = run::out_dir().join(format!(
        "spans-{}-seed{}-trace{}.jsonl",
        settings.kind.name(),
        settings.seed,
        u8::from(settings.trace)
    ));
    if let Err(e) = spans.write(&spans_file) {
        eprintln!("perfbench: cannot write {}: {e}", spans_file.display());
    }
    let Ok(outcome) = outcome else {
        // A failed gate is reported as a failed run, never as numbers.
        println!(
            "{}",
            render(&Value::Obj(vec![
                ("correct".into(), Value::Bool(false)),
                ("attempted".into(), Value::Num(1.0)),
                ("failed".into(), Value::Num(1.0)),
                ("metrics".into(), Value::Obj(Vec::new())),
            ]))
        );
        return ExitCode::from(1);
    };
    let mut info = outcome.info;
    info.push((
        "spans_file".into(),
        Value::Str(spans_file.display().to_string()),
    ));
    println!(
        "{}",
        render(&Value::Obj(vec![("info".into(), Value::Obj(info))]))
    );
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            (
                m.name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    println!(
        "{}",
        render(&Value::Obj(vec![
            ("correct".into(), Value::Bool(true)),
            ("attempted".into(), Value::Num(outcome.attempted as f64)),
            ("failed".into(), Value::Num(outcome.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ]))
    );
    ExitCode::SUCCESS
}
