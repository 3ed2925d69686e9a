//! End-to-end and per-layer benchmark of the ExplainTI reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <table-cold|column-hot|train> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Workloads:
//!
//! - `table-cold`: whole-table `POST /v1/interpret` bodies that never
//!   repeat, so every column runs the full model path (tokenizer,
//!   encoder, LE/GE/SE, GE retrieval) plus batching, pool fan-out,
//!   chunked streaming and an LRU insert with eviction.
//! - `column-hot`: 64 single-column bodies answered once in warm-up and
//!   replayed from the response cache, so only the front end runs.
//! - `train`: the `explainti train` path in-process; it also writes the
//!   model directory the serve workloads boot.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` a separate run
//! with the same inputs printing the per-layer ones. The seed drives the
//! training corpus, the cold stream and the hot set; seed 2 is the one to
//! confirm a claim on after tuning on seed 1. The last stdout line is the
//! result object; a failed check makes `correct` false and the exit
//! code 1.

mod child;
mod client;
mod inputs;
mod layers;
mod model;
mod report;
mod serve_wl;
mod stats;
mod sys;
mod train_wl;

use std::process::ExitCode;

use serde_json::json;

use report::Outcome;
use serve_wl::Kind;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num =
            || value.parse::<u64>().map_err(|_| format!("{flag}: not a whole number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn run(a: &Args, out: &mut Outcome) -> Result<(), String> {
    std::fs::create_dir_all(sys::work_dir()).map_err(|e| format!("create work dir: {e}"))?;
    let kind = match a.workload.as_str() {
        "train" => return train_wl::run(a.seed, a.seconds, a.trace, out),
        "table-cold" => Kind::TableCold,
        "column-hot" => Kind::ColumnHot,
        other => return Err(format!("unknown workload {other}")),
    };
    // A traced run always trains, so it can time the epochs.
    let (dir, cycle) = model::ensure(a.seed, a.trace)?;
    out.note("model_dir", json!(dir.to_string_lossy().into_owned()));
    out.note("model_trained_in_run", json!(cycle.is_some()));
    // Spans of the last traced run per workload; each run overwrites them.
    let spans = sys::work_dir().join(format!("spans-{}.jsonl", a.workload));
    serve_wl::run(kind, a.seed, a.seconds, a.trace.then_some(spans.as_path()), &dir, out)?;
    if let Some(c) = cycle.filter(|_| a.trace) {
        out.metrics.push(train_wl::epoch_s(&c.report));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child-boot") {
        return match child::main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("server child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: e2ebench --workload <table-cold|column-hot|train> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    explainti_pool::configure(child::POOL_THREADS);
    explainti_obs::set_level(explainti_obs::Level::Info);

    let mut out = Outcome::default();
    out.note("workload", json!(args.workload));
    out.note("seed", json!(args.seed.to_string()));
    out.note("confirm_seed", json!(2));
    out.note("seconds", json!(args.seconds));
    out.note("trace", json!(args.trace));
    out.note("commit", json!(sys::commit()));
    out.note("build_fnv64", json!(format!("{:016x}", sys::exe_fnv64())));
    out.note("nproc", json!(sys::nproc()));
    out.note("simd_tier", json!(explainti_nn::simd::tier().name()));
    out.note("pool_threads", json!(explainti_pool::global().threads()));
    out.note("clients", json!(serve_wl::CLIENTS));
    out.note(
        "corpus",
        json!({
            "train_tables": inputs::TRAIN_TABLES,
            "epochs": inputs::EPOCHS,
            "hot_columns": inputs::HOT_COLUMNS,
            "warmup_tables": inputs::WARMUP_TABLES,
            "check_tables": inputs::CHECK_TABLES,
            "train_seed": format!("{:016x}", inputs::sub_seed(args.seed, 1)),
            "hot_seed": format!("{:016x}", inputs::sub_seed(args.seed, 2)),
        }),
    );
    out.note("telemetry", json!("default (EXPLAINTI_LOG unset)"));
    if let Err(e) = run(&args, &mut out) {
        out.problems.push(e);
    }
    if !out.problems.is_empty() && out.failed == 0 {
        // An aborted run still attempted the workload once.
        out.attempted = out.attempted.max(1);
        out.failed = 1;
    }
    out.print(&args.workload);
    if out.problems.is_empty() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
