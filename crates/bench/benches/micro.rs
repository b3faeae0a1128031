//! Micro-benchmarks of the substrates: event queue, packet simulation
//! rate, policy routing, C4.5 training, the telemetry hot path, and the
//! control plane (per-flow one-hop and multihop broker decisions, the
//! bandit's probe plan, smoke-sized service run).
//!
//! Self-contained harness (no external bench framework): each bench is
//! timed over enough iterations to smooth scheduler noise, the median of
//! several repetitions is reported, and the results are written to
//! `BENCH_micro.json` at the repo root (bench name → ns/iter) so the
//! perf trajectory is machine-readable from PR to PR.

use std::hint::black_box;
use std::time::Instant;

use control::{Broker, BrokerConfig};
use cronets::eval::{Measurement, OverlayProbe, PairProbe};
use experiments::chaos::{chaos, chaos_with_sink, ChaosConfig};
use experiments::scenario::{ScenarioConfig, World};
use experiments::service::{service, ServiceConfig};
use experiments::sharded::{service_sharded, ShardedConfig};
use experiments::sweep::Sweep;
use faults::FaultSchedule;
use simcore::{EventQueue, SimDuration, SimTime};
use topology::gen::{generate, InternetConfig};
use transport::des::{DesPath, Netsim, TransferConfig};

/// Times `f` over `iters` iterations, `reps` times; returns the median
/// ns/iter.
fn bench<T>(iters: u32, reps: u32, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn bench_event_queue() -> f64 {
    bench(20, 7, || {
        let mut q = EventQueue::<u64>::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos(i * 7 % 5_000), i);
        }
        while q.pop().is_some() {}
        q
    })
}

fn bench_des_tcp() -> f64 {
    bench(3, 5, || {
        let mut sim = Netsim::new(1);
        let l = sim.add_link(100_000_000, SimDuration::from_millis(20), 1e-4, 1 << 20);
        let f = sim.add_tcp_flow(DesPath::new(vec![l]), &TransferConfig::for_secs(1));
        sim.run().remove(f).bytes_delivered
    })
}

/// The event queue drained through `pop_batch` (one timestamp read per
/// same-tick batch) over the same workload as `event_queue_push_pop_10k`
/// — the dispatch path the DES engine's hot loop uses.
fn bench_event_queue_coalesced() -> f64 {
    bench(20, 7, || {
        let mut q = EventQueue::<u64>::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos(i * 7 % 5_000), i);
        }
        let mut batch = Vec::new();
        let mut drained = 0usize;
        while q.pop_batch(&mut batch).is_some() {
            drained += batch.len();
        }
        drained
    })
}

/// One pop and one schedule per step on a queue holding 1,300 live
/// events (a planet region's mean depth) with a 56-byte payload (the
/// service loop's event): the service days' steady state.
fn bench_event_queue_steady() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut delay = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        SimDuration::from_nanos(1 + x % 2_000_000)
    };
    let mut q = EventQueue::<[u64; 7]>::new();
    for i in 0..1_300 {
        q.schedule(SimTime::ZERO + delay(), [i; 7]);
    }
    bench(200_000, 7, || {
        let (t, ev) = q.pop().expect("the queue stays full");
        q.schedule(t + delay(), ev);
        t
    })
}

fn bench_bgp() -> f64 {
    let net = generate(&InternetConfig::paper_scale(), 7);
    let dests: Vec<topology::AsId> = net.ases().map(|a| a.id()).take(8).collect();
    bench(3, 5, || {
        let mut bgp = routing::Bgp::new();
        for &d in &dests {
            let _ = black_box(bgp.table(&net, d).len());
        }
    })
}

fn bench_route_expansion() -> f64 {
    let mut net = generate(&InternetConfig::paper_scale(), 7);
    let stubs: Vec<topology::AsId> = net
        .ases()
        .filter(|a| a.tier() == topology::AsTier::Stub)
        .map(|a| a.id())
        .collect();
    let a = net.attach_host("a", stubs[0], 100_000_000);
    let b = net.attach_host("b", stubs[40], 100_000_000);
    let mut bgp = routing::Bgp::new();
    // Warm the AS-level cache so the benchmark isolates expansion.
    let _ = routing::route(&net, &mut bgp, a, b);
    bench(50, 7, || {
        routing::route(&net, &mut bgp, a, b).map(|p| p.hop_count())
    })
}

fn bench_c45() -> f64 {
    let mut rng = simcore::SimRng::seed_from(3);
    let mut ds = mlcls::Dataset::new(vec!["x".into(), "y".into()]);
    for _ in 0..2_000 {
        let x = rng.uniform_range(-1.0, 1.0);
        let y = rng.uniform_range(-1.0, 1.0);
        ds.push(vec![x, y], x > 0.1 && y > 0.2);
    }
    bench(3, 5, || {
        mlcls::Tree::fit(&ds, &mlcls::TreeConfig::default()).node_count()
    })
}

/// One memoized route lookup (hash probe + path clone): the cost the
/// sweeps pay per overlay segment once the cache is warm, vs the full
/// BGP walk + expansion of `route_expand_paper_scale`.
fn bench_route_cache_hit() -> f64 {
    let mut net = generate(&InternetConfig::paper_scale(), 7);
    let stubs: Vec<topology::AsId> = net
        .ases()
        .filter(|a| a.tier() == topology::AsTier::Stub)
        .map(|a| a.id())
        .collect();
    let a = net.attach_host("a", stubs[0], 100_000_000);
    let b = net.attach_host("b", stubs[40], 100_000_000);
    let mut cache = routing::RouteCache::build(&net);
    cache.prefetch(&net, &[(a, b)]);
    bench(10_000, 7, || cache.route(&net, a, b).map(|p| p.hop_count()))
}

/// A full sweep over the tiny controlled world: the end-to-end number
/// the parallel execution layer (work units + route cache) moves. Runs
/// at whatever `--threads`/default parallelism the machine offers.
fn bench_parallel_sweep() -> f64 {
    let world = World::build(&ScenarioConfig::tiny(), 13);
    let senders = world.servers.clone();
    let receivers = world.clients.clone();
    bench(3, 5, || {
        Sweep::run(&world, &senders, &receivers, false)
            .records
            .len()
    })
}

/// The telemetry hot path with collection disabled: this is the cost
/// every DES event pays in a plain (un-instrumented) run, and the
/// number that backs the "near-free when disabled" claim.
fn bench_metrics_disabled() -> f64 {
    obs::enable();
    let c = obs::counter("bench.hot");
    obs::disable();
    bench(1_000_000, 7, || obs::add(black_box(c), 1))
}

/// The same path with collection enabled (one thread-local borrow plus
/// an array index).
fn bench_metrics_enabled() -> f64 {
    obs::enable();
    let c = obs::counter("bench.hot");
    let ns = bench(1_000_000, 7, || obs::add(black_box(c), 1));
    obs::disable();
    ns
}

/// `cronets report` over a real smoke-chaos artifact set: parse the
/// manifest, attribution table and span stream, then render the text
/// and OpenMetrics outputs. The span file is streamed from the run's
/// sink, as `cronets chaos --spans` writes it.
fn bench_report_smoke() -> f64 {
    let dir = std::env::temp_dir().join("cronets_bench_report");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ChaosConfig::smoke();
    let schedule = FaultSchedule::generate(&cfg.faults, 7);
    let mut spans = obs::TsvFile::create(
        &dir,
        "spans_chaos.tsv",
        "t_ns\tid\tparent\tkind\tsubject\ta\tb",
    )
    .expect("spans");
    obs::enable();
    let report = chaos_with_sink(&cfg, 7, &schedule, &mut |w| {
        for s in w {
            spans.row(s).expect("span row");
        }
    });
    let manifest = obs::RunManifest::collect("chaos", 7, 0);
    obs::disable();
    spans.finish().expect("spans");
    manifest.write_to(&dir).expect("manifest");
    std::fs::write(dir.join("attribution.tsv"), report.attribution.to_tsv()).expect("attribution");
    let ns = bench(3, 5, || {
        let r = experiments::run_report::assemble(&dir).expect("assemble");
        (r.to_string().len(), r.to_openmetrics().len())
    });
    let _ = std::fs::remove_dir_all(&dir);
    ns
}

/// One broker admission decision against a fresh cached probe (slot
/// lookup by pair index + filtered overlay argmax + counter bump): the
/// per-flow cost of the control plane's hot path.
fn bench_broker_decision() -> f64 {
    let meas = |bps: f64| Measurement {
        throughput_bps: bps,
        rtt: SimDuration::from_millis(60),
        loss: 0.01,
    };
    let eval = PairProbe {
        direct: meas(20e6),
        overlays: (0..5)
            .map(|i| OverlayProbe {
                node: i,
                split: meas(40e6 + i as f64 * 5e6),
            })
            .collect(),
    };
    let mut broker = Broker::new(BrokerConfig {
        max_probe_age: SimDuration::from_secs(600),
        min_accept_bps: 1e6,
        overlay_margin: 1.05,
    });
    broker.observe(0, SimTime::ZERO, eval);
    let mut i = 0u64;
    bench(100_000, 7, || {
        i += 1;
        broker.decide(0, SimTime::ZERO, |n| (n as u64 + i).is_multiple_of(2))
    })
}

/// The whole smoke-sized online service (workload generation, probing,
/// broker, DES-style completion queue, autoscaler, SLO ledger): the
/// end-to-end number `cronets service --smoke` pays.
fn bench_service_smoke() -> f64 {
    let cfg = ServiceConfig::smoke();
    bench(1, 3, || service(&cfg, 7).completed)
}

/// One epoch barrier of the sharded control plane's round engine: 64
/// trivial shards exchanging one ring message per round for 50 rounds —
/// the pure synchronization overhead (mailbox routing + barrier) the
/// planetary service pays per epoch, with no decision work attached.
fn bench_shard_barrier() -> f64 {
    let ns_for_50 = bench(50, 7, || {
        let states = vec![0u64; 64];
        let out = exec::shard_rounds(
            states,
            4,
            50,
            |i, s: &mut u64, round, inbox: Vec<u64>| {
                *s += inbox.into_iter().sum::<u64>() + round as u64;
                vec![((i + 1) % 64, *s)]
            },
            |_, _| {},
        );
        out.into_iter().sum::<u64>()
    });
    ns_for_50 / 50.0
}

/// The CI-sized planetary service (8 regions, 4 shard lanes): the
/// end-to-end number `cronets service --planet --smoke --threads 4`
/// pays, cross-region handoffs and budget reconciliation included.
fn bench_service_smoke_sharded() -> f64 {
    let cfg = ShardedConfig::planetary_smoke();
    bench(3, 3, || service_sharded(&cfg, 7, 4).completed)
}

/// The full PR-10 acceptance run: 10.4M arrivals over 102,400 relay
/// slots across 64 regions on 16 shard lanes. One iteration — this is
/// a wall-clock scale proof, not a micro-bench.
fn bench_service_full_10m() -> f64 {
    let cfg = ShardedConfig::planetary();
    bench(1, 1, || service_sharded(&cfg, 7, 16).completed)
}

/// A short planetary day at full width (64 regions × 16.3k arrivals,
/// 102,400 relay slots) on the sharded engine: the numerator of the
/// sharded-vs-unsharded speedup pair (its denominator is
/// `service_planet_mid_unsharded`).
fn bench_service_planet_mid_sharded() -> f64 {
    let cfg = planet_mid();
    bench(1, 3, || service_sharded(&cfg, 7, 8).completed)
}

/// The same workload folded into one region (one broker, one fleet of
/// 102,400 slots in 20,480-slot groups): the unsharded baseline. Its
/// ratio to `service_planet_mid_sharded` used to read ≈5× (5.1× on the
/// full 50-epoch run), mostly from the monolithic fleet's slot-by-slot
/// scans of its 20,480-slot groups. The fleet now finds a group's free
/// slot in O(1), and the pair's workload at one lane reads 1.60 s
/// unsharded vs 1.01 s sharded (≈1.6×) on a 2-vCPU host. Nothing gates
/// on the ratio.
fn bench_service_planet_mid_unsharded() -> f64 {
    let cfg = planet_mid().monolithic();
    bench(1, 1, || service(&cfg, 7).completed)
}

/// The speedup-pair fabric: the full planetary fleet (64 regions,
/// 102,400 slots) over a 5-epoch day, sized so the unsharded baseline
/// finishes in bench-able time.
fn planet_mid() -> ShardedConfig {
    let mut cfg = ShardedConfig::planetary();
    cfg.service.workload.epochs = 5;
    cfg.service.workload.diurnal_period = cfg.service.workload.epoch * 5;
    cfg
}

/// K-hop candidate enumeration over the tiny world's warmed route
/// cache: the per-pair setup cost the multihop policy pays once per
/// run (leg reachability probes + capacity/price pruning + ordering).
fn bench_multihop_enumerate() -> f64 {
    let world = World::build(&ScenarioConfig::tiny(), 13);
    let nodes = world.cronet.nodes();
    let (s, c) = (world.servers[0], world.clients[0]);
    let mut cache = routing::RouteCache::build(&world.net);
    let mut keys: Vec<(topology::RouterId, topology::RouterId)> = vec![(s, c)];
    for a in nodes {
        keys.push((s, a.vm()));
        keys.push((a.vm(), c));
        for b in nodes {
            if a.vm() != b.vm() {
                keys.push((a.vm(), b.vm()));
            }
        }
    }
    cache.prefetch(&world.net, &keys);
    let ecfg = paths::EnumerateConfig::khops(2);
    bench(500, 7, || {
        paths::enumerate(&world.net, &cache, nodes, s, c, &ecfg, 0.01).len()
    })
}

/// One bandit observation folded into an arm's EWMA estimate (plus the
/// pull/time bookkeeping): the per-probe cost of the path selector.
fn bench_bandit_update() -> f64 {
    let rng = simcore::SimRng::seed_from(7).fork(0xBE_9C4);
    let mut b = paths::PathBandit::new(paths::BanditConfig::service(), 50, rng);
    let mut i = 0usize;
    bench(1_000_000, 7, || {
        i += 1;
        b.observe(i % 50, black_box(20e6));
    })
}

/// One budgeted probe plan on the paper day's shape: 26 arms, a budget
/// of 2, every arm pulled (one jitter draw per arm, one pass).
fn bench_bandit_probe_plan() -> f64 {
    let rng = simcore::SimRng::seed_from(7).fork(0xB0_9E);
    let mut b = paths::PathBandit::new(paths::BanditConfig::service(), 26, rng);
    for arm in 0..26 {
        b.observe(arm, 10e6 + arm as f64 * 1e6);
    }
    bench(100_000, 7, || b.probe_plan(black_box(2)))
}

/// One multihop admission decision on a 26-arm pair (direct, five
/// one-relay arms, twenty two-relay chains over five relays) with a
/// changing set of busy relays: the busy-mask read plus the bandit's
/// one-pass best usable arm.
fn bench_multihop_decision() -> f64 {
    let mut cands = vec![paths::Candidate {
        hops: paths::Hops::direct(),
        price_per_gb: 0.0,
    }];
    for i in 0..5 {
        cands.push(paths::Candidate {
            hops: paths::Hops::single(i),
            price_per_gb: 0.01,
        });
    }
    for i in 0..5 {
        for j in (0..5).filter(|&j| j != i) {
            cands.push(paths::Candidate {
                hops: paths::Hops::from_slice(&[i, j]),
                price_per_gb: 0.02,
            });
        }
    }
    let truth: Vec<paths::ArmEval> = (0..cands.len())
        .map(|a| paths::ArmEval {
            bps: 20e6 + a as f64 * 1e6,
            rtt: SimDuration::from_millis(60),
        })
        .collect();
    let mut broker = Broker::new(BrokerConfig {
        max_probe_age: SimDuration::from_secs(600),
        min_accept_bps: 1e6,
        overlay_margin: 1.05,
    });
    broker.enable_multihop(vec![cands], paths::BanditConfig::service(), 7);
    broker.seed_paths(0, &truth);
    let mut i = 0u64;
    bench(100_000, 7, || {
        i += 1;
        broker.decide_paths(0, |n| !(n as u64 + i).is_multiple_of(3))
    })
}

/// The whole smoke-sized multihop comparison (three schedules × three
/// policies over the Fig. 12/13 worst-direct pairs): the end-to-end
/// number `cronets multihop --smoke` pays.
fn bench_multihop_smoke() -> f64 {
    let cfg = experiments::multihop::MultihopConfig::smoke(7);
    bench(1, 3, || experiments::multihop::multihop(&cfg).rows.len())
}

/// Fault-schedule generation for the smoke chaos run: the pure
/// `(config, seed) → events` cost the nemesis adds before a run starts.
fn bench_fault_inject() -> f64 {
    let cfg = ChaosConfig::smoke().faults;
    let mut seed = 0u64;
    bench(200, 7, || {
        seed += 1;
        FaultSchedule::generate(&cfg, seed).len()
    })
}

/// The whole smoke-sized chaos run (the service loop plus fault
/// injection, flow kills/retries and the invariant checker): the
/// end-to-end number `cronets chaos --smoke` pays.
fn bench_chaos_smoke() -> f64 {
    let cfg = ChaosConfig::smoke();
    bench(1, 3, || chaos(&cfg, 7).completed)
}

/// One fuzzer iteration: structured mutation, render, and the micro
/// chaos run under the mutant — the marginal cost of every unit of
/// `cronets fuzz --budget`.
fn bench_fuzz_iter() -> f64 {
    let cfg = ChaosConfig::micro();
    let horizon = cfg.service.workload.horizon();
    let epoch = cfg.service.workload.epoch;
    let base = fuzz::ScheduleIr::from_schedule(
        &FaultSchedule::generate(&cfg.faults, 7),
        cfg.faults.relays,
        horizon,
        7,
    );
    let mut rng = simcore::SimRng::seed_from(7).fork(0xBE7C);
    bench(3, 3, || {
        let mut ir = base.clone();
        fuzz::mutate(&mut ir, &mut rng, epoch);
        let sched = ir.render().expect("sanitized mutants render");
        // As the fuzzer runs it: spans go to a sink that drops them.
        chaos_with_sink(&cfg, 7, &sched, &mut |_| {}).completed
    })
}

/// A three-day smoke soak (service + nemesis + invariants + ledger
/// compaction per day): the per-day amortized cost `cronets soak
/// --smoke` pays.
fn bench_soak_smoke() -> f64 {
    let cfg = experiments::soak::SoakConfig {
        days: 3,
        smoke: true,
    };
    bench(1, 3, || {
        experiments::soak::soak(&cfg, 7, None, None, |_| {})
            .expect("soak runs")
            .days_done
    })
}

fn main() {
    let results: Vec<(&str, f64)> = vec![
        ("event_queue_push_pop_10k", bench_event_queue()),
        ("event_queue_coalesced_10k", bench_event_queue_coalesced()),
        ("event_queue_steady_1k", bench_event_queue_steady()),
        ("des_tcp_1s_100mbps", bench_des_tcp()),
        ("bgp_table_paper_scale", bench_bgp()),
        ("route_expand_paper_scale", bench_route_expansion()),
        ("route_cache_hit", bench_route_cache_hit()),
        ("parallel_sweep_tiny", bench_parallel_sweep()),
        ("c45_fit_2k_rows", bench_c45()),
        ("metrics_add_disabled", bench_metrics_disabled()),
        ("metrics_add_enabled", bench_metrics_enabled()),
        ("broker_decision", bench_broker_decision()),
        ("service_smoke", bench_service_smoke()),
        ("shard_barrier_epoch", bench_shard_barrier()),
        ("service_smoke_sharded", bench_service_smoke_sharded()),
        ("service_full_10m", bench_service_full_10m()),
        (
            "service_planet_mid_sharded",
            bench_service_planet_mid_sharded(),
        ),
        (
            "service_planet_mid_unsharded",
            bench_service_planet_mid_unsharded(),
        ),
        ("multihop_enumerate", bench_multihop_enumerate()),
        ("bandit_update", bench_bandit_update()),
        ("bandit_probe_plan", bench_bandit_probe_plan()),
        ("multihop_decision", bench_multihop_decision()),
        ("multihop_smoke", bench_multihop_smoke()),
        ("fault_inject", bench_fault_inject()),
        ("chaos_smoke", bench_chaos_smoke()),
        ("fuzz_iter", bench_fuzz_iter()),
        ("soak_smoke", bench_soak_smoke()),
        ("report_smoke", bench_report_smoke()),
    ];

    for (name, ns) in &results {
        println!("{name:30} {ns:>14.1} ns/iter");
    }

    // Machine-readable trajectory next to the repo root.
    let mut json = String::from("{\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!("  \"{name}\": {ns:.1}{sep}\n"));
    }
    json.push_str("}\n");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = std::path::Path::new(root).join("BENCH_micro.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}
