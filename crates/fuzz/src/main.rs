//! Deterministic corruption-fuzzing CLI for the DBGC decoders.
//!
//! ```text
//! cargo run -p dbgc-fuzz -- --seed 1 --iters 10000
//! ```
//!
//! Compresses simulator frames with the real encoders, mutates the streams
//! (seed-driven, replayable), and asserts every decode returns `Err` or a
//! valid cloud within the time and allocation budgets. A violation is
//! minimized and written to the regression corpus (default
//! `tests/tests/corpus/`), and the process exits nonzero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dbgc_fuzz::{build_seed_inputs, content_hash, decode_target, minimize, Mutator, Target};

/// System allocator wrapper that tracks the peak live allocation of threads
/// that opted in (the decode workers), so the harness can assert decoders
/// stay allocation-bounded on hostile inputs.
struct TrackingAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TRACKED: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKED.with(|t| t.get()) {
            let live =
                LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed) + layout.size() as i64;
            PEAK.fetch_max(live.max(0) as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if TRACKED.with(|t| t.get()) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn reset_peak() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
}

#[derive(Debug, Clone)]
struct Options {
    seed: u64,
    iters: u64,
    corpus: PathBuf,
    time_budget: Duration,
    mem_budget: u64,
    targets: Vec<Target>,
    wire_faults: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seed: 1,
        iters: 1000,
        corpus: PathBuf::from("tests/tests/corpus"),
        time_budget: Duration::from_secs(5),
        mem_budget: 256 << 20,
        targets: Target::ALL.to_vec(),
        wire_faults: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--iters" => opts.iters = value("--iters")?.parse().map_err(|e| format!("{e}"))?,
            "--corpus" => opts.corpus = PathBuf::from(value("--corpus")?),
            "--time-budget-ms" => {
                opts.time_budget = Duration::from_millis(
                    value("--time-budget-ms")?.parse().map_err(|e| format!("{e}"))?,
                )
            }
            "--mem-budget-mb" => {
                opts.mem_budget =
                    value("--mem-budget-mb")?.parse::<u64>().map_err(|e| format!("{e}"))? << 20
            }
            "--emit-regressions" => {
                let dir = PathBuf::from(value("--emit-regressions")?);
                std::fs::create_dir_all(&dir).map_err(|e| format!("{e}"))?;
                for (target, label, bytes) in dbgc_fuzz::regression_inputs() {
                    let name = format!(
                        "crash-{}-{label}-{:016x}.bin",
                        target.name(),
                        content_hash(&bytes)
                    );
                    std::fs::write(dir.join(&name), &bytes).map_err(|e| format!("{e}"))?;
                }
                println!("regression corpus written to {}", dir.display());
                std::process::exit(0);
            }
            "--wire-faults" => opts.wire_faults = true,
            "--target" => {
                let name = value("--target")?;
                let t = Target::from_name(&name).ok_or(format!("unknown target {name}"))?;
                opts.targets = vec![t];
            }
            "--help" | "-h" => {
                println!(
                    "fuzz --seed N --iters M [--corpus DIR] [--target NAME] \
                     [--time-budget-ms T] [--mem-budget-mb B] [--wire-faults]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// One decode attempt's outcome, as seen by the harness.
#[derive(Debug, Clone)]
enum CaseResult {
    Pass,
    /// Contract violation, panic, over-allocation, or hang.
    Fail(String),
}

/// Run one decode on a watchdog-supervised worker thread, enforcing the
/// time and allocation budgets. A fresh thread per case keeps a hung decode
/// from wedging the harness: the stuck worker is abandoned and reported.
fn run_case(target: Target, input: Vec<u8>, time_budget: Duration, mem_budget: u64) -> CaseResult {
    let (tx, rx) = mpsc::channel();
    reset_peak();
    std::thread::Builder::new()
        .name(format!("fuzz-{}", target.name()))
        .stack_size(16 << 20)
        .spawn(move || {
            TRACKED.with(|t| t.set(true));
            let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                decode_target(target, &input)
            }));
            TRACKED.with(|t| t.set(false));
            let _ = tx.send(verdict);
        })
        .expect("spawn fuzz worker");
    match rx.recv_timeout(time_budget) {
        Ok(Ok(Ok(()))) => {
            let peak = PEAK.load(Ordering::Relaxed);
            if peak > mem_budget {
                CaseResult::Fail(format!("peak allocation {peak} bytes exceeds budget"))
            } else {
                CaseResult::Pass
            }
        }
        Ok(Ok(Err(violation))) => CaseResult::Fail(violation),
        Ok(Err(_panic)) => CaseResult::Fail("decoder panicked".into()),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            CaseResult::Fail(format!("decode exceeded {:?} budget", time_budget))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            CaseResult::Fail("worker died without reporting".into())
        }
    }
}

/// Minimize a failing input, write it to the regression corpus, and exit
/// nonzero. Shared by the mutation loop and the wire-fault mode.
fn fail_and_minimize(opts: &Options, target: Target, input: &[u8], reason: &str) -> ! {
    let time_budget = opts.time_budget;
    let mem_budget = opts.mem_budget;
    // Hangs pay the full timeout per probe; keep those cheap. Wire-fault
    // probes each run a full chaos session, so cap them harder too.
    let probes = if reason.contains("budget") {
        64
    } else if target == Target::WireFault {
        256
    } else {
        2048
    };
    eprintln!("minimizing ({probes} probes max)...");
    let minimized = minimize(
        input,
        &mut |candidate: &[u8]| {
            matches!(
                run_case(target, candidate.to_vec(), time_budget, mem_budget),
                CaseResult::Fail(_)
            )
        },
        probes,
    );
    std::fs::create_dir_all(&opts.corpus).expect("create corpus dir");
    let path =
        opts.corpus.join(format!("crash-{}-{:016x}.bin", target.name(), content_hash(&minimized)));
    std::fs::write(&path, &minimized).expect("write corpus file");
    eprintln!(
        "minimized {} -> {} bytes; regression input written to {}",
        input.len(),
        minimized.len(),
        path.display()
    );
    std::process::exit(1);
}

/// Wire-fault mode: drive seeded and mutated fault schedules through the
/// chaos harness under the same watchdog and budgets as the decoders. Even
/// iterations replay the generated schedule for `seed + iter` verbatim;
/// odd ones mutate it, so both the generator's envelope and arbitrary
/// schedule bytes get coverage.
fn run_wire_faults(opts: &Options) {
    let mut mutator = Mutator::new(opts.seed);
    let started = Instant::now();
    for iter in 0..opts.iters {
        let seed = opts.seed + iter;
        let generated = dbgc_net::FleetChaosConfig::fuzz(seed).schedule().to_bytes();
        let (input, kind) = if iter % 2 == 0 {
            (generated, "generated")
        } else {
            let donor = dbgc_net::FleetChaosConfig::fuzz(seed ^ 0x5EED).schedule().to_bytes();
            mutator.mutate(&generated, &donor)
        };
        if let CaseResult::Fail(reason) =
            run_case(Target::WireFault, input.clone(), opts.time_budget, opts.mem_budget)
        {
            // Drop the silencer installed by main; take_hook resets to the
            // default printing hook for the minimization phase.
            drop(std::panic::take_hook());
            eprintln!("FAILURE at iter {iter} (schedule seed {seed}, {kind}): {reason}");
            fail_and_minimize(opts, Target::WireFault, &input, &reason);
        }
        if (iter + 1) % 100 == 0 {
            eprintln!(
                "{}/{} schedules, {:.1}s elapsed",
                iter + 1,
                opts.iters,
                started.elapsed().as_secs_f64()
            );
        }
    }
    drop(std::panic::take_hook());
    println!(
        "OK: {} fault schedules (seeds {}..{}) survived in {:.1}s with zero violations",
        opts.iters,
        opts.seed,
        opts.seed + opts.iters,
        started.elapsed().as_secs_f64()
    );
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Panics inside catch_unwind would spam the console; keep the default
    // hook silent and report through the harness instead.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    if opts.wire_faults {
        run_wire_faults(&opts);
        return;
    }

    let seeds = build_seed_inputs(opts.seed);
    let seeds: Vec<_> = seeds.into_iter().filter(|s| opts.targets.contains(&s.target)).collect();
    if seeds.is_empty() {
        eprintln!("error: no seed inputs for the selected targets");
        std::process::exit(2);
    }
    let mut mutator = Mutator::new(opts.seed);
    let started = Instant::now();
    let mut per_mutation: std::collections::BTreeMap<&'static str, u64> = Default::default();

    for iter in 0..opts.iters {
        let base = &seeds[(iter as usize) % seeds.len()];
        let donor = &seeds[(iter as usize + 1) % seeds.len()];
        let (mutated, kind) = mutator.mutate(&base.bytes, &donor.bytes);
        *per_mutation.entry(kind).or_default() += 1;
        let result = run_case(base.target, mutated.clone(), opts.time_budget, opts.mem_budget);
        if let CaseResult::Fail(reason) = result {
            std::panic::set_hook(default_hook);
            eprintln!(
                "FAILURE at iter {iter} (seed {}, target {}, mutation {kind}): {reason}",
                opts.seed,
                base.target.name()
            );
            fail_and_minimize(&opts, base.target, &mutated, &reason);
        }
        if (iter + 1) % 1000 == 0 {
            eprintln!(
                "{}/{} iterations, {:.1}s elapsed",
                iter + 1,
                opts.iters,
                started.elapsed().as_secs_f64()
            );
        }
    }
    std::panic::set_hook(default_hook);
    let breakdown: Vec<String> = per_mutation.iter().map(|(k, v)| format!("{k}: {v}")).collect();
    println!(
        "OK: {} iterations over {} targets in {:.1}s with zero violations ({})",
        opts.iters,
        seeds.len(),
        started.elapsed().as_secs_f64(),
        breakdown.join(", ")
    );
}
