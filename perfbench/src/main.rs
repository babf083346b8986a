//! The repository benchmark of the MECH compiler (see `README.md`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-441q|served-verify> \
//!     [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --print-counts --workload <name> [--seed <n>]
//! ```
//!
//! A run prints information lines (prefixed `#`) and, as its last line,
//! one JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The
//! traced run also writes its spans to `perfbench/out/`.

mod checks;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use workload::{compiler_config, device_spec, Workload};

/// End-to-end metrics and their units, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("compile_ms", "ms"),
    ("gates_per_s", "gates/s"),
    ("depth", "count"),
    ("eff_cnots", "count"),
    ("peak_rss_mb", "MB"),
    ("request_ms_min", "ms"),
];

/// Per-layer metrics, their units, and the span (for times) they are
/// derived from, as in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str, Option<&str>); 23] = [
    (
        "chiplet.topology_build_ms",
        "ms",
        Some("chiplet.topology_build"),
    ),
    (
        "chiplet.layout_generate_ms",
        "ms",
        Some("chiplet.layout_generate"),
    ),
    (
        "highway.entrance_table_ms",
        "ms",
        Some("highway.entrance_table"),
    ),
    (
        "highway.skeleton_build_ms",
        "ms",
        Some("highway.skeleton_build"),
    ),
    ("circuit.generate_ms", "ms", Some("circuit.generate")),
    ("circuit.dag_build_ms", "ms", Some("circuit.dag_build")),
    ("core.session_new_ms", "ms", Some("core.session_new")),
    ("core.session_run_ms", "ms", Some("core.session_run")),
    ("highway.claim_searches", "count", None),
    ("highway.claim_skips", "count", None),
    ("highway.claim_skip_ratio", "ratio", None),
    ("highway.shuttles", "count", None),
    ("highway.components", "count", None),
    ("highway.components_per_shuttle", "comp/shuttle", None),
    ("core.ops", "count", None),
    ("router.regular_gates", "count", None),
    ("core.sem_events", "count", None),
    ("sim.verify_sweep_ms", "ms", Some("sim.verify_sweep")),
    ("sim.verify_policy_ms", "ms", Some("sim.verify_policy")),
    ("serve.queue_ms", "ms", Some("serve.queue")),
    ("serve.compile_ms", "ms", Some("serve.compile")),
    ("serve.verify_ms", "ms", Some("serve.verify")),
    ("serve.overhead_ms", "ms", Some("serve.request")),
];

const USAGE: &str = "usage: perfbench --workload <paper-441q|served-verify> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--print-counts]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_counts: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut print_counts = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-counts" {
            print_counts = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        print_counts,
    })
}

/// A fixed CPU-only loop, timed: printed at the start and end of a run so
/// a slow host period can be told apart from a slower program. It chains
/// dependent loads from a 256 KiB table, so it slows down, as the
/// compiler does, when a neighbour competes for the core's caches.
fn reference_loop_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let table: Vec<u64> = (0..1u64 << 15)
        .map(|i| i.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .collect();
    for _ in 0..(1u32 << 23) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(table[(x as usize) & (table.len() - 1)]);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The last output line.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut body = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// Prints each program's deterministic counts, compiled once afresh, as
/// JSON lines: the source for any expected-value file.
fn print_counts(args: &Args) {
    let device = device_spec().build_artifacts();
    let compiler = mech::MechCompiler::new(device.clone(), compiler_config());
    for p in workload::generate(args.workload, device.num_data_qubits(), args.seed) {
        match compiler.compile(&p.circuit) {
            Ok(r) => println!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"program\": \"{}\", \"gates\": {}, \"two_qubit\": {}, \"depth\": {}, \"eff_cnots\": {}, \"core.ops\": {}, \"claim_searches\": {}, \"claim_skips\": {}, \"shuttles\": {}, \"components\": {}, \"regular_gates\": {}}}",
                args.workload.name(),
                args.seed,
                p.name,
                p.circuit.len(),
                p.circuit.two_qubit_count(),
                r.metrics().depth,
                r.metrics().eff_cnots,
                r.circuit.ops().len(),
                r.claim_searches,
                r.claim_skips,
                r.shuttle_stats.shuttles,
                r.shuttle_stats.components,
                r.regular_gates
            ),
            Err(e) => println!("# {}: compile failed: {e}", p.name),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_counts {
        print_counts(&args);
        return ExitCode::SUCCESS;
    }

    println!(
        "# workload {} seed {} seconds {} trace {} (threads=1, {} cpus available)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("# reference loop at start: {:.3} ms", reference_loop_ms());
    let (mut outcome, trace) = workload::run(args.workload, args.seed, args.seconds, args.trace);
    match peak_rss_mb() {
        Some(mb) => {
            outcome.metrics.insert("peak_rss_mb", mb);
        }
        None => outcome.errors.push("cannot read VmHWM".to_string()),
    }
    println!("# reference loop at end: {:.3} ms", reference_loop_ms());
    for line in &outcome.info {
        println!("# {line}");
    }

    let mut printed = Vec::new();
    if args.trace {
        for (name, _) in END_TO_END {
            if let Some(v) = outcome.metrics.get(name) {
                println!("# traced end-to-end {name} = {v}");
            }
        }
        let times = trace.self_times();
        for (name, unit, span) in PER_LAYER {
            let value = match span {
                Some(span) => times.get(span).map_or(0.0, |t| t.mean_ms()),
                None => outcome.metrics.get(name).copied().unwrap_or(f64::NAN),
            };
            printed.push((name, unit, value));
        }
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")).join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match trace.write_jsonl(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => outcome
                .errors
                .push(format!("writing {}: {e}", path.display())),
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
            printed.push((name, unit, value));
        }
    }
    for (name, _, value) in &mut printed {
        if !value.is_finite() {
            outcome
                .errors
                .push(format!("metric {name} was not measured"));
            *value = 0.0;
        }
    }
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    println!(
        "{}",
        result_json(
            outcome.errors.is_empty(),
            outcome.attempted,
            outcome.failed,
            &printed
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    //! The benchmark's self-test (run with `--release`: it compiles at
    //! the 441-qubit scale).

    use super::*;

    /// `(name, unit)` of every metric in one `BENCHMARK.json` list.
    fn listed(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} list"));
        let rest = &text[start..];
        let list = &rest[rest.find('[').expect("[")..=rest.find(']').expect("]")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("key") + key.len() + 2;
            let v = &obj[at..];
            let v = &v[v.find('"').expect("value") + 1..];
            v[..v.find('"').expect("end")].to_string()
        };
        list.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
        assert_eq!(listed("per_layer"), own(&per_layer));
    }

    #[test]
    fn every_workload_measures_every_metric() {
        for w in Workload::ALL {
            for tracing in [false, true] {
                let (outcome, trace) = workload::run(w, 3, 0.0, tracing);
                assert!(
                    outcome.errors.is_empty(),
                    "{}: {:?}",
                    w.name(),
                    outcome.errors
                );
                assert_eq!(outcome.failed, 0);
                assert!(outcome.attempted > 0);
                if tracing {
                    let times = trace.self_times();
                    for (name, _, span) in PER_LAYER {
                        match span {
                            Some(span) => assert!(
                                times.get(span).is_some_and(|t| t.count > 0),
                                "{}: no {span} span",
                                w.name()
                            ),
                            None => assert!(outcome.metrics.contains_key(name), "{name}"),
                        }
                    }
                } else {
                    for (name, _) in END_TO_END.iter().filter(|(n, _)| *n != "peak_rss_mb") {
                        let v = outcome.metrics[name];
                        assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", w.name());
                    }
                }
            }
        }
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_json(true, 4, 0, &[("a", "ms", 1.5), ("b", "count", 2.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
    }
}
