//! `explainti` — command-line interface for the ExplainTI reproduction.
//!
//! ```text
//! explainti generate  --out corpus.json [--tables N] [--git]
//! explainti train     --corpus corpus.json --out model-dir [--epochs N]
//!                     [--report-out report.json]
//! explainti interpret --model model-dir [--json] file.csv [file2.csv …]
//! explainti evaluate  --model model-dir
//! explainti serve     --model model-dir [--addr host:port] [--workers N] [--cache-cap N]
//!                     [--deadline-ms N] [--max-conns N]
//!                     [--read-timeout-ms MS] [--idle-timeout-ms MS]
//! ```
//!
//! Every command accepts `--trace-out <trace.jsonl>` to stream telemetry
//! span events as JSONL, and honours `EXPLAINTI_LOG=off|info|debug`.
//! `train` and `evaluate` also accept `--threads <N>` to size their
//! fan-outs (default: `EXPLAINTI_THREADS`, then all cores): each training
//! mini-batch's forward and backward passes, the embedding-store refresh
//! in every training epoch, and `evaluate`. A loaded model reads its
//! store from the snapshot, so `interpret` and `serve` fan nothing out;
//! serve's `--workers` is how many forwards run at once. Results never
//! depend on `--threads`, trained weights included — every thread
//! computes what the serial path computes and training adds gradients
//! in sample order — only latency does.
//! Unless telemetry is off, a per-stage latency table prints to stderr at
//! the end of the run.
//!
//! `train` writes the model-directory layout (corpus snapshot, weight
//! checkpoint, embedding store, manifest) that `interpret`, `evaluate`,
//! and `serve` all load — tokenizers and parameter layouts derive
//! deterministically from the corpus + the fixed BERT-like config.
//! `interpret --json` emits one [`explainti::api::InterpretTableResponse`]
//! JSON line per input file, the same DTOs (and bytes) the server
//! returns for the same model; every response carries the top
//! [`explainti::api::DEFAULT_TOP_K`] explanations per view.

mod flags;

use explainti::api::{
    ColumnPrediction, InterpretTableRequest, InterpretTableResponse, PredictResponse, DEFAULT_TOP_K,
};
use explainti::corpus::{generate_git, generate_wiki, GitConfig, WikiConfig};
use explainti::prelude::*;
use explainti::table::table_from_csv_file;
use flags::{CommandSpec, Parsed};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// ---- Command specs ----------------------------------------------------

fn with_common(spec: CommandSpec) -> CommandSpec {
    spec.value("trace-out", "FILE", "stream telemetry span events to FILE as JSONL").value(
        "failpoints",
        "SPEC",
        "activate fault-injection sites, e.g. 'serve.worker.panic=times(1)' \
             (also: EXPLAINTI_FAILPOINTS env)",
    )
}

/// `--threads`, on the commands that fan out.
fn with_threads(spec: CommandSpec) -> CommandSpec {
    spec.value(
        "threads",
        "N",
        "fan-out threads for training and evaluate (default: EXPLAINTI_THREADS or all cores)",
    )
}

fn all_specs() -> Vec<CommandSpec> {
    vec![
        with_common(
            CommandSpec::new("generate", "generate a synthetic benchmark corpus")
                .required_value("out", "FILE", "where to write the corpus JSON")
                .value("tables", "N", "number of tables (default 600)")
                .switch("git", "generate the Git-schema corpus instead of Wiki"),
        ),
        with_common(with_threads(
            CommandSpec::new("train", "train a model and write a model directory")
                .required_value("corpus", "FILE", "corpus JSON from `generate`")
                .required_value("out", "DIR", "model directory to write")
                .value("epochs", "N", "training epochs (default from config)")
                .value("report-out", "FILE", "write the training report JSON here"),
        )),
        with_common(
            CommandSpec::new("interpret", "predict column types for CSV files")
                .required_value("model", "DIR", "model directory from `train`")
                .switch("json", "emit one api::InterpretTableResponse JSON line per file")
                .positionals("file.csv", 1),
        ),
        with_common(with_threads(
            CommandSpec::new("evaluate", "report test-split F1 for each task").required_value(
                "model",
                "DIR",
                "model directory from `train`",
            ),
        )),
        with_common(
            CommandSpec::new("serve", "run the HTTP inference server")
                .required_value("model", "DIR", "model directory from `train`")
                .value("addr", "HOST:PORT", "bind address (default 127.0.0.1:7431)")
                .value("workers", "N", "forwards that may run at once (default 2)")
                .value("cache-cap", "N", "LRU response cache capacity (default 256)")
                .value("deadline-ms", "MS", "per-request deadline; late → 504 (default 30000)")
                .value("max-conns", "N", "open-connection hard limit; over → 429 (default 1024)")
                .value(
                    "read-timeout-ms",
                    "MS",
                    "incomplete-request deadline; over → 408 (default 10000)",
                )
                .value(
                    "idle-timeout-ms",
                    "MS",
                    "idle keep-alive connection timeout (default 60000)",
                ),
        ),
    ]
}

fn usage(specs: &[CommandSpec]) -> ExitCode {
    eprintln!("usage:");
    for spec in specs {
        eprintln!("  {}", spec.usage().trim_end().replace('\n', "\n  "));
    }
    eprintln!(
        "  analyze [--workspace | PATH…] — run the repo invariant lints (see `analyze --help`)"
    );
    eprintln!(
        "\nall commands honour EXPLAINTI_LOG=off|info|debug (default info)\n\
         and print a per-stage latency table to stderr unless telemetry is off"
    );
    ExitCode::from(2)
}

// ---- Commands ---------------------------------------------------------

fn cmd_generate(args: &Parsed) -> Result<ExitCode, String> {
    let _span = explainti_obs::span!("cli.generate");
    let out = args.get("out").expect("required");
    let tables = args.get_or("tables", 600usize).map_err(|e| e.to_string())?;
    let dataset = if args.is_set("git") {
        generate_git(&GitConfig { num_tables: tables, ..Default::default() })
    } else {
        generate_wiki(&WikiConfig { num_tables: tables, ..Default::default() })
    };
    let json = serde_json::to_string(&dataset).map_err(|e| format!("serialise corpus: {e:?}"))?;
    std::fs::write(out, json).map_err(|e| format!("write {out}: {e}"))?;
    let st = dataset.statistics();
    println!(
        "wrote {out}: {} tables, {} type labels, {} relation labels",
        st.num_tables, st.num_type_labels, st.num_relation_labels
    );
    Ok(ExitCode::SUCCESS)
}

fn load_dataset(path: &Path) -> Result<Dataset, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path:?}: {e}"))
}

fn load_model(args: &Parsed) -> Result<(ExplainTi, Dataset), String> {
    let dir = PathBuf::from(args.get("model").expect("required"));
    ExplainTi::load_from_dir(&dir).map_err(|e| format!("load model from {dir:?}: {e}"))
}

fn cmd_train(args: &Parsed) -> Result<ExitCode, String> {
    let _span = explainti_obs::span!("cli.train");
    let corpus = args.get("corpus").expect("required");
    let out = args.get("out").expect("required");
    let dataset = load_dataset(Path::new(corpus))?;
    // The model-directory convention `load_from_dir` rebuilds with.
    let mut cfg = ExplainTiConfig::bert_like(2048, 32);
    if let Some(epochs) = args.get_opt("epochs").map_err(|e| e.to_string())? {
        cfg.epochs = epochs;
    }
    let mut model = ExplainTi::new(&dataset, cfg);
    println!("training ({} weights)…", model.num_weights());
    let report = model.train();
    println!("trained in {:?} (best epoch {})", report.total_time, report.best_epoch);
    if let Some(path) = args.get("report-out") {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("serialise report: {e:?}"))?;
        std::fs::write(path, json).map_err(|e| format!("write report {path}: {e}"))?;
        println!("wrote training report to {path}");
    }
    for kind in [TaskKind::Type, TaskKind::Relation] {
        if model.task_index(kind).is_some() {
            let f1 = model.evaluate(kind, Split::Test);
            println!("{kind:9} test F1: {f1}");
        }
    }
    let dir = PathBuf::from(out);
    model.save_to_dir(&dir, &dataset).map_err(|e| format!("save model to {dir:?}: {e}"))?;
    println!("saved model to {dir:?}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_interpret(args: &Parsed) -> Result<ExitCode, String> {
    let _span = explainti_obs::span!("cli.interpret");
    let (model, dataset) = load_model(args)?;
    let labels = &dataset.collection.type_labels;
    let as_json = args.is_set("json");
    let mut failures = 0usize;
    for file in &args.positional {
        let table = match table_from_csv_file(Path::new(file)) {
            Ok(Ok(t)) => t,
            Ok(Err(e)) => {
                eprintln!("{file}: {e}");
                failures += 1;
                continue;
            }
            Err(e) => {
                eprintln!("{file}: {e}");
                failures += 1;
                continue;
            }
        };
        if as_json {
            // One api::InterpretTableResponse per line — the same DTOs
            // (and bytes) `serve` answers with for this model.
            let req = InterpretTableRequest::from_table(&table);
            let mut columns = Vec::with_capacity(req.columns.len());
            for idx in 0..req.columns.len() {
                let col = req.column_request(idx);
                let cells: Vec<&str> = col.cells.iter().map(String::as_str).collect();
                let p = model.predict_column(&col.title, &col.header, &cells);
                columns.push(ColumnPrediction {
                    header: col.header,
                    prediction: PredictResponse::from_prediction(&p, labels, DEFAULT_TOP_K),
                });
            }
            let resp = InterpretTableResponse {
                schema_version: explainti::api::SCHEMA_VERSION,
                title: req.title,
                columns,
            };
            println!("{}", serde_json::to_string(&resp).unwrap_or_default());
        } else {
            println!("{file} (\"{}\"):", table.title);
            for col in &table.columns {
                let cells = col.cell_refs();
                let p = model.predict_column(&table.title, &col.header, &cells);
                let label = &labels[p.label];
                println!("  {:<20} → {label} ({:.0}%)", col.header, p.confidence * 100.0);
                for span in p.explanation.top_local_diverse(1) {
                    println!("  {:<20}   evidence: \"{}\"", "", span.text);
                }
            }
        }
    }
    if failures > 0 && failures == args.positional.len() {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_evaluate(args: &Parsed) -> Result<ExitCode, String> {
    let _span = explainti_obs::span!("cli.evaluate");
    let (model, _dataset) = load_model(args)?;
    for kind in [TaskKind::Type, TaskKind::Relation] {
        if model.task_index(kind).is_some() {
            let f1 = model.evaluate(kind, Split::Test);
            println!("{kind:9} test F1 (micro/macro/weighted): {f1}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

// ---- serve ------------------------------------------------------------

/// Set from the SIGINT handler; polled by the serve command so Ctrl-C
/// triggers the same graceful drain as POST /v1/admin/shutdown.
static CTRL_C: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_ctrl_c_flag() {
    extern "C" fn on_sigint(_sig: i32) {
        // Only async-signal-safe work here: one atomic store.
        CTRL_C.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    // SAFETY: `signal(2)` is called once at startup from the main thread
    // with a handler that only performs an async-signal-safe atomic store.
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

#[cfg(not(unix))]
fn install_ctrl_c_flag() {}

fn cmd_serve(args: &Parsed) -> Result<ExitCode, String> {
    let dir = PathBuf::from(args.get("model").expect("required"));
    let (model, dataset) =
        ExplainTi::load_from_dir(&dir).map_err(|e| format!("load model from {dir:?}: {e}"))?;
    let cfg = explainti::serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7431").to_string(),
        workers: args.get_or("workers", 2usize).map_err(|e| e.to_string())?,
        cache_cap: args.get_or("cache-cap", 256usize).map_err(|e| e.to_string())?,
        deadline_ms: args.get_or("deadline-ms", 30_000u64).map_err(|e| e.to_string())?,
        max_conns: args.get_or("max-conns", 1024usize).map_err(|e| e.to_string())?,
        read_timeout_ms: args.get_or("read-timeout-ms", 10_000u64).map_err(|e| e.to_string())?,
        idle_timeout_ms: args.get_or("idle-timeout-ms", 60_000u64).map_err(|e| e.to_string())?,
    };
    let labels = dataset.collection.type_labels.clone();
    let mut handle = explainti::serve::start(Arc::new(model), labels, cfg)
        .map_err(|e| format!("bind server: {e}"))?;
    println!(
        "listening on http://{} — POST /v1/interpret, GET /v1/healthz, GET /v1/metrics, \
         POST /v1/admin/swap, GET /v1/admin/store, POST /v1/admin/shutdown \
         (Ctrl-C drains gracefully)",
        handle.addr()
    );
    install_ctrl_c_flag();
    let shutdown_flag = handle.shutdown_flag();
    let watcher = std::thread::spawn(move || loop {
        if CTRL_C.load(Ordering::SeqCst) {
            shutdown_flag.store(true, Ordering::SeqCst);
        }
        if shutdown_flag.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    });
    handle.join();
    let _ = watcher.join();
    println!("server drained and stopped");
    Ok(ExitCode::SUCCESS)
}

// ---- Entry point ------------------------------------------------------

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let specs = all_specs();
    let Some(cmd) = argv.first() else {
        return usage(&specs);
    };
    // `analyze` delegates to the analyzer crate's own flag grammar
    // (`--workspace`, `--format json`, `--bless`, …) rather than the
    // spec parser — it is a lint pass, not a model command.
    if cmd == "analyze" {
        return analyzer::cli::main_with_args(&argv[1..]);
    }
    let Some(spec) = specs.iter().find(|s| s.name() == cmd.as_str()) else {
        eprintln!("unknown command {cmd:?}\n");
        return usage(&specs);
    };
    let args = match spec.parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("usage:\n  {}", spec.usage().trim_end().replace('\n', "\n  "));
            return ExitCode::from(2);
        }
    };
    if let Some(path) = args.get("trace-out") {
        if let Err(e) = explainti_obs::set_trace_file(Path::new(path)) {
            eprintln!("open trace file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Set the fan-out width before any compute runs. `--threads` (train
    // and evaluate only) wins over `EXPLAINTI_THREADS`, which wins over
    // the core count. (Serve's `--workers` is different: it bounds
    // concurrent forwards.)
    match args.get_opt::<usize>("threads") {
        Ok(explicit) => {
            explainti::pool::configure(explainti::pool::Threads::resolve(explicit).threads())
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    // Fault injection: `--failpoints` layers on top of whatever
    // `EXPLAINTI_FAILPOINTS` already configured, and every trip is
    // mirrored into the obs counters for the final telemetry report.
    if let Some(spec) = args.get("failpoints") {
        match explainti::faults::configure_from_spec(spec) {
            Ok(n) if n > 0 => eprintln!("fault injection: {n} failpoint site(s) armed"),
            Ok(_) => {}
            Err(e) => {
                eprintln!("error: --failpoints: {e}");
                return ExitCode::from(2);
            }
        }
    }
    explainti::faults::set_observer(|site| {
        explainti_obs::add_counter(&format!("faults.hit.{site}"), 1);
    });
    let code = match cmd.as_str() {
        "generate" => cmd_generate(&args),
        "train" => cmd_train(&args),
        "interpret" => cmd_interpret(&args),
        "evaluate" => cmd_evaluate(&args),
        "serve" => cmd_serve(&args),
        _ => unreachable!("spec lookup covers every command"),
    };
    // Per-stage latency breakdown (the paper's Table V stages) on stderr.
    if explainti_obs::enabled() {
        let report = explainti_obs::report();
        if !report.is_empty() {
            eprintln!("{report}");
        }
    }
    explainti_obs::close_trace();
    match code {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
