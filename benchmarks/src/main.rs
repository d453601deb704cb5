//! `bench`: the repo benchmark's harness. See `README.md` beside this
//! crate for the workloads, the metrics and what each is expected to move.
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's call)
//!       [--repeat N --set LABEL]                            N runs, seeds N.., into out/sets/LABEL/
//!       [--node-bin PATH]                                   default: $CARGO_TARGET_DIR/release/blockprov-node
//! bench --smoke                                             every workload, tiny, traced and untraced
//! bench compare DIR_A DIR_B                                 verdict per workload x metric
//! ```
//!
//! The last line of a run's standard output is the contract's JSON object.

mod compare;
mod http;
mod json;
mod layers;
mod manifest;
mod proc;
mod stats;
mod stream;
mod sut;
mod system;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use compare::Contract;
use json::Json;
use stream::Stream;
use system::Env;
use trace::Tracer;
use workloads::{Metric, Plan, WORKLOADS};

/// The harness crate's own directory (`benchmarks/`); the repo root is its
/// parent. Cargo rebuilds when the checkout moves, so the compile-time
/// path is the run-time path.
fn home() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn repo_root() -> &'static Path {
    home()
        .parent()
        .expect("the harness crate sits one level below the repo root")
}

#[derive(Clone)]
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    set: Option<String>,
    node_bin: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench --workload NAME --seed N --seconds S --trace 0|1 [--repeat N --set LABEL] [--node-bin PATH]\n\
         \x20      bench --smoke [--node-bin PATH]\n\
         \x20      bench compare DIR_A DIR_B\n\
         workloads: {}",
        WORKLOADS.map(|(n, _)| n).join(", ")
    );
    ExitCode::from(2)
}

fn parse_options(args: &[String]) -> Option<Options> {
    let mut o = Options {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: false,
        repeat: 1,
        set: None,
        node_bin: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => o.seed = value.parse().ok()?,
            "--seconds" => o.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => o.trace = matches!(value.as_str(), "1" | "true"),
            "--repeat" => o.repeat = value.parse().ok().filter(|n| *n > 0)?,
            "--set" => o.set = Some(value.clone()),
            "--node-bin" => o.node_bin = Some(PathBuf::from(value)),
            _ => return None,
        }
    }
    Some(o)
}

/// `--node-bin`, else the release directory of `$CARGO_TARGET_DIR`
/// (relative to the repo root, as `run.sh` builds it), else the root
/// workspace's own `target/release`.
fn node_bin(explicit: Option<&Path>) -> PathBuf {
    if let Some(p) = explicit {
        return p.to_path_buf();
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    repo_root()
        .join(target)
        .join("release")
        .join("blockprov-node")
}

/// One finished run: what goes to the result file and to standard output.
struct RunResult {
    /// Everything measured, end-to-end first.
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    correct: bool,
    notes: Vec<String>,
    /// The result file: all of the above plus the manifest.
    doc: Json,
}

/// Run one workload once. Untraced: the workload, for its end-to-end
/// metrics. Traced: the workload with spans on, then the layer budget; the
/// trace is written to `out/<workload>.trace.json`.
fn run_once(env: &Env, o: &Options, seed: u64) -> Result<RunResult, String> {
    proc::reset_own_peak_rss();
    let plan = Plan::new(&o.workload, o.seconds, o.smoke)
        .ok_or(format!("unknown workload `{}`", o.workload))?;
    let t0 = Instant::now();
    let stream = Stream::generate_with_singles(
        seed,
        plan.shape,
        plan.stream_batches(),
        plan.warm_batches,
        1,
    );
    let generated = t0.elapsed();
    let mut manifest = manifest::manifest(
        home(),
        repo_root(),
        &env.node_bin,
        &plan,
        &stream,
        seed,
        o.seconds,
        o.trace,
        o.smoke,
    )
    .with("driver_generate_s", generated.as_secs_f64())
    .with(
        "pinned_cpus",
        env.pinned_cpus.map_or(Json::Null, |(probe, writer)| {
            Json::from(format!("probe system {probe}, write system {writer}"))
        }),
    );

    // One clock for every span of the run, workload and budget alike.
    let epoch = Instant::now();
    let outcome = workloads::run(env, &plan, &stream, seed, Tracer::new(o.trace, epoch, 0))?;
    drop(stream);
    let mut metrics = outcome.metrics;
    let mut notes = outcome.notes;
    if o.trace {
        let mut tracer = Tracer::new(true, epoch, 50);
        let mut spans = outcome.spans;
        let layer = layers::budget(
            env,
            plan.shape,
            seed,
            o.seconds,
            o.smoke,
            &mut tracer,
            &mut spans,
        )?;
        let d = outcome.driver;
        let own = [
            Metric::new("driver.cpu_share", d.cpu_share, "share"),
            Metric::new("driver.sched_lag_p99_ms", d.sched_lag_p99_ms, "ms"),
            Metric::new("driver.trace_overhead_pct", d.trace_overhead_pct, "%"),
            Metric::new("driver.steal_share", d.steal_share, "share"),
        ];
        for m in layer.into_iter().chain(own) {
            // A metric both sections measure (a tail moved to the per-layer
            // list) keeps the workload's own value.
            if !metrics.iter().any(|have| have.name == m.name) {
                metrics.push(m);
            }
        }
        if plan.transport == system::Transport::Direct {
            notes.push(ladder_note(&metrics, &outcome.commit_ns, &plan, o));
        }
        spans.extend(tracer.into_spans());
        let path = home()
            .join("out")
            .join(format!("{}.trace.json", plan.workload));
        trace::write_trace(&path, &manifest, &spans)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        manifest = manifest
            .with("trace_file", path.display().to_string())
            .with("trace_spans", spans.len());
    }

    let mut slices_doc = Json::obj();
    for (name, values) in outcome.slices {
        let values: Vec<Json> = values.into_iter().map(Json::Num).collect();
        slices_doc = slices_doc.with(name, values);
    }
    let mut metrics_doc = Json::obj();
    for m in &metrics {
        let mut entry = Json::obj().with("value", m.value).with("unit", m.unit);
        if let Some(n) = m.samples {
            entry = entry.with("samples", n);
        }
        metrics_doc = metrics_doc.with(m.name, entry);
    }
    let doc = Json::obj()
        .with("manifest", manifest)
        .with("correct", outcome.correct)
        .with("attempted", outcome.tally.attempted)
        .with("failed", outcome.tally.failed)
        .with(
            "notes",
            notes
                .iter()
                .map(|n| Json::from(n.as_str()))
                .collect::<Vec<_>>(),
        )
        .with("metrics", metrics_doc)
        .with("slices", slices_doc);
    Ok(RunResult {
        metrics,
        attempted: outcome.tally.attempted,
        failed: outcome.tally.failed,
        correct: outcome.correct,
        notes,
        doc,
    })
}

/// How the ingest ladder's rungs add up against the in-process workload
/// that ran just before them: over the whole write phase, and over its
/// first blocks only — as many as the ladder's own stream holds, since a
/// block costs more the longer the history behind it.
fn ladder_note(metrics: &[Metric], commit_ns: &[u64], plan: &Plan, o: &Options) -> String {
    let sum: f64 = layers::LADDER_SUM
        .iter()
        .filter_map(|name| metrics.iter().find(|m| m.name == *name))
        .map(|m| m.value)
        .sum();
    let per_batch = plan.shape.blocks_per_batch as f64;
    let mean_us =
        |ns: &[u64]| ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1e3 / per_batch;
    let ladder_batches = layers::budget_batches(plan.shape, o.seconds, o.smoke);
    let head = &commit_ns[..ladder_batches.min(commit_ns.len())];
    format!(
        "ingest ladder sums to {sum:.2} us/block over {} blocks; this run's write phase took {:.2} us/block \
         overall and {:.2} us/block over its first {} blocks",
        ladder_batches as f64 * per_batch,
        mean_us(commit_ns),
        mean_us(head),
        head.len() as f64 * per_batch
    )
}

/// Print every metric by name with its unit (and sample count), then the
/// contract's object as the last line: the end-to-end metrics of an
/// untraced run, the per-layer metrics of a traced one.
fn report(contract: &Contract, o: &Options, r: &RunResult) -> Result<(), String> {
    println!(
        "workload {} seed {} seconds {} trace {} — durability: {}; {} logical CPUs, one per system",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        sut::DURABILITY,
        proc::nproc()
    );
    for m in &r.metrics {
        match m.samples {
            // The sample count says how far into the tail the sample
            // reaches: a p99 of 400 samples is printed, and marked.
            Some(n) => println!(
                "  {:<44} {:>16.4} {:<6} (n={n}, supports p{})",
                m.name,
                m.value,
                m.unit,
                stats::highest_supported_percentile(n)
            ),
            None => println!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit),
        }
    }
    let wanted: Vec<&str> = if o.trace {
        contract.per_layer.iter().map(String::as_str).collect()
    } else {
        contract
            .end_to_end
            .iter()
            .map(|g| g.name.as_str())
            .collect()
    };
    let mut metrics = Json::obj();
    for name in wanted {
        let m = r.metrics.iter().find(|m| m.name == name).ok_or(format!(
            "BENCHMARK.json lists `{name}`, which this run did not measure"
        ))?;
        metrics = metrics.with(
            name,
            Json::obj().with("value", m.value).with("unit", m.unit),
        );
    }
    for note in &r.notes {
        println!("  note: {note}");
    }
    let line = Json::obj()
        .with("correct", r.correct)
        .with("attempted", r.attempted)
        .with("failed", r.failed)
        .with("metrics", metrics);
    println!("{}", line.render());
    Ok(())
}

fn write_result(path: &Path, r: &RunResult) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, r.doc.render()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload, tiny, untraced then traced, against the same oracle;
/// fails unless each run is correct and the metric names measured are
/// exactly the names `BENCHMARK.json` lists.
fn smoke(env: &Env, contract: &Contract, node: Option<PathBuf>) -> Result<(), String> {
    let listed: BTreeSet<&str> = contract
        .end_to_end
        .iter()
        .map(|g| g.name.as_str())
        .chain(contract.per_layer.iter().map(String::as_str))
        .collect();
    let t0 = Instant::now();
    for (workload, _) in WORKLOADS {
        if !contract.workloads.iter().any(|w| w == workload) {
            return Err(format!(
                "BENCHMARK.json does not list workload `{workload}`"
            ));
        }
        let mut measured = BTreeSet::new();
        for trace in [false, true] {
            let o = Options {
                workload: workload.to_string(),
                seed: 2,
                seconds: contract.run_seconds,
                trace,
                smoke: true,
                repeat: 1,
                set: None,
                node_bin: node.clone(),
            };
            let started = Instant::now();
            let r = run_once(env, &o, o.seed)?;
            eprintln!(
                "smoke: {workload} trace {}: {:.1} s",
                u8::from(trace),
                started.elapsed().as_secs_f64()
            );
            if !r.correct || r.failed > 0 {
                return Err(format!(
                    "{workload} (trace {trace}): {} of {} operations failed",
                    r.failed, r.attempted
                ));
            }
            measured.extend(r.metrics.iter().map(|m| m.name));
            report(contract, &o, &r)?;
        }
        if measured != listed {
            let missing: Vec<_> = listed.difference(&measured).collect();
            let extra: Vec<_> = measured.difference(&listed).collect();
            return Err(format!("{workload}: BENCHMARK.json lists but the run lacks {missing:?}; the run has but it lacks {extra:?}"));
        }
    }
    if contract.workloads.len() != WORKLOADS.len() {
        return Err("BENCHMARK.json lists a workload the harness does not have".into());
    }
    println!(
        "smoke ok: {} workloads, {} metric names, {:.1} s",
        WORKLOADS.len(),
        listed.len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let contract = Contract::load(&repo_root().join("BENCHMARK.json"))?;
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            return Ok(usage());
        };
        let clean = compare::compare(&contract, Path::new(a), Path::new(b))?;
        return Ok(if clean {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let Some(o) = parse_options(&args) else {
        return Ok(usage());
    };
    // Before anything is spawned: threads and children inherit the pin.
    let pinned_cpus = proc::pin_to_first_cpu();
    if pinned_cpus.is_none() {
        eprintln!("bench: warning: could not pin to one CPU; timings will follow thread placement");
    }
    let env = Env {
        node_bin: node_bin(o.node_bin.as_deref()),
        tmp_root: home().join("out").join("tmp"),
        pinned_cpus,
    };
    proc::check_release_binary(&env.node_bin)?;
    let (node_profile, own_profile) = (
        manifest::release_profile(&repo_root().join("Cargo.toml")),
        manifest::release_profile(&home().join("Cargo.toml")),
    );
    if node_profile != own_profile {
        eprintln!(
            "bench: warning: the root workspace builds release with `{node_profile}` but the harness with \
             `{own_profile}`; in-process numbers then describe different code generation than the node's"
        );
    }
    if o.smoke {
        smoke(&env, &contract, o.node_bin.clone())?;
        return Ok(ExitCode::SUCCESS);
    }
    if o.workload.is_empty() || o.seconds <= 0.0 {
        return Ok(usage());
    }
    if o.repeat > 1 {
        return repeat(&o, &args);
    }
    let r = run_once(&env, &o, o.seed)?;
    let path = match &o.set {
        Some(set) => home()
            .join("out")
            .join("sets")
            .join(set)
            .join(format!("{}.{}.json", o.workload, o.seed)),
        None => {
            let kind = if o.trace { "layers" } else { "result" };
            home()
                .join("out")
                .join(format!("{}.{kind}.json", o.workload))
        }
    };
    write_result(&path, &r)?;
    report(&contract, &o, &r)?;
    Ok(if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--repeat N`: N runs with seeds `seed, seed + 1, …`, each in a process
/// of its own exactly as the driver starts them (a fresh process has a
/// fresh heap, so peak memory means the same in every run), their result
/// files collected under `out/sets/<label>/` for `compare`.
fn repeat(o: &Options, args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let set = o.set.clone().unwrap_or_else(|| "default".into());
    // Every argument but the three this function decides itself.
    let mut passed = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if matches!(a.as_str(), "--repeat" | "--seed" | "--set") {
            it.next();
        } else {
            passed.push(a.clone());
        }
    }
    let mut all_ok = true;
    for i in 0..o.repeat {
        let seed = (o.seed + i as u64).to_string();
        let status = std::process::Command::new(&exe)
            .args(&passed)
            .args(["--seed", &seed, "--set", &set])
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_ok &= status.success();
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
