//! `serve_mix`: two closed-loop clients against a live sweep server on a
//! Unix socket, submitting cells drawn from `load_matrix`'s universe.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dd_baselines::{AttackerKind, BackgroundLoad, DefenseKind};
use dd_bench::serve::{
    calibrated_cost_model, BoundListener, Endpoint, Remote, RetryPolicy, ServiceClient,
};
use dd_server::{CellSpec, DeviceBase, DeviceSpec, ServerConfig, SweepBase, SweepServer};
use dnn_defender::{CostModel, Json};

use crate::layers::{self, Layers, Probe};
use crate::matrix::MatrixSpec;
use crate::matrix::{load_matrix_twins, threshold_for};
use crate::refs::CommittedCells;
use crate::stats::{classify_reply, median, Outcome};
use crate::workload::{Pass, Scratch, Workload, WORKERS};

/// Submits each client sends per pass. With a Zipf(1) hot set over the
/// 72-cell universe this makes about half of the requested cells
/// repeats of cells an earlier submit already computed.
pub const REQUESTS_PER_CLIENT: usize = 11;

/// Largest submit, in cells.
const MAX_CELLS_PER_REQUEST: usize = 4;

/// Grant per client: far above any pass's offered work, so a refusal
/// comes from the server's own admission, not from this generator.
const GRANT_MICROS: u64 = 1_000_000_000_000;

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Pass `pass` of the run at `seed`: per client, its submits; each
/// submit lists 1–4 distinct universe indices drawn from a Zipf(1)
/// distribution over a seeded ranking. Every pass draws afresh, so a
/// run's medians cover many schedules rather than one.
pub fn schedule(seed: u64, pass: u64, universe: usize) -> Vec<Vec<Vec<usize>>> {
    let mut rng = SplitMix(seed ^ 0x5e4e_3e0c ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut ranking: Vec<usize> = (0..universe).collect();
    for i in (1..universe).rev() {
        ranking.swap(i, rng.below(i + 1));
    }
    let weights: Vec<f64> = (0..universe).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let draw = |rng: &mut SplitMix| {
        let mut x = rng.unit() * total;
        for (rank, w) in weights.iter().enumerate() {
            if x < *w {
                return ranking[rank];
            }
            x -= w;
        }
        ranking[universe - 1]
    };
    (0..WORKERS)
        .map(|_| {
            (0..REQUESTS_PER_CLIENT)
                .map(|_| {
                    let size = 1 + rng.below(MAX_CELLS_PER_REQUEST.min(universe));
                    let mut cells: Vec<usize> = Vec::with_capacity(size);
                    while cells.len() < size {
                        let cell = draw(&mut rng);
                        if !cells.contains(&cell) {
                            cells.push(cell);
                        }
                    }
                    cells
                })
                .collect()
        })
        .collect()
}

/// Universe cells, in `load_matrix` cell order (defense, device, load).
pub fn universe(seed: u64) -> Vec<CellSpec> {
    let devices = [
        DeviceSpec {
            base: DeviceBase::Lpddr4Small,
            t_rh: None,
        },
        DeviceSpec {
            base: DeviceBase::Lpddr4Small,
            t_rh: Some(threshold_for(seed)),
        },
    ];
    DefenseKind::TABLE3
        .into_iter()
        .flat_map(|defense| {
            devices.into_iter().flat_map(move |device| {
                BackgroundLoad::ALL.into_iter().map(move |load| CellSpec {
                    defense,
                    attacker: AttackerKind::Bfa,
                    device,
                    load,
                    priority: 0,
                })
            })
        })
        .collect()
}

/// What the server said about one completed cell.
struct Served {
    key: u64,
    defense: String,
    cache_hit: bool,
    wall_us: u64,
    queue_us: u64,
    estimate_us: u64,
    rendered: String,
}

struct Live {
    socket: PathBuf,
    server: JoinHandle<Result<(), String>>,
    clients: Vec<ServiceClient>,
}

fn client(socket: &Path) -> ServiceClient {
    // One attempt: a transport failure counts as a failed request
    // instead of being retried away.
    let policy = RetryPolicy {
        attempts: 1,
        ..RetryPolicy::default()
    };
    ServiceClient::remote(Remote::Unix(socket.to_path_buf()), policy)
}

/// The served workload.
pub struct ServeWorkload {
    seed: u64,
    specs: Vec<CellSpec>,
    /// Passes cold-started so far (the schedule's pass index).
    passes: u64,
    requests: Vec<Vec<Json>>,
    sizes: Vec<Vec<usize>>,
    cost: CostModel,
    committed: CommittedCells,
    live: Option<Live>,
    probe: Option<Probe>,
    executor: Option<Json>,
    computed_by_defense: BTreeMap<String, u64>,
    /// Cache-hit share of each pass's served cells.
    hit_shares: Vec<f64>,
}

impl ServeWorkload {
    /// `serve_mix` at `seed`.
    pub fn new(root: &Path, seed: u64) -> Result<Self, String> {
        let specs = universe(seed);
        Ok(ServeWorkload {
            seed,
            specs,
            passes: 0,
            requests: Vec::new(),
            sizes: Vec::new(),
            cost: calibrated_cost_model(&root.join("artifacts")),
            committed: CommittedCells::load(root)?,
            live: None,
            probe: None,
            executor: None,
            computed_by_defense: BTreeMap::new(),
            hit_shares: Vec::new(),
        })
    }

    /// Build the next pass's submits.
    fn plan_next_pass(&mut self) {
        let plan = schedule(self.seed, self.passes, self.specs.len());
        self.passes += 1;
        let specs = &self.specs;
        self.requests = plan
            .iter()
            .enumerate()
            .map(|(c, submits)| {
                submits
                    .iter()
                    .map(|cells| {
                        Json::obj()
                            .with("op", Json::str("submit"))
                            .with("client", Json::str(format!("client{c}")))
                            .with("quick", Json::Bool(true))
                            .with(
                                "cells",
                                Json::Arr(cells.iter().map(|&i| specs[i].to_json()).collect()),
                            )
                    })
                    .collect()
            })
            .collect();
        self.sizes = plan
            .iter()
            .map(|submits| submits.iter().map(Vec::len).collect())
            .collect();
    }

    fn stats(&mut self) -> Result<Json, String> {
        let live = self.live.as_mut().ok_or("no live server")?;
        live.clients[0].request_json(&Json::obj().with("op", Json::str("stats")))
    }
}

/// Send one client's submits in a closed loop.
fn drive(
    client: &mut ServiceClient,
    requests: &[Json],
    sizes: &[usize],
    pass: &mut Pass,
) -> Vec<Served> {
    let mut served = Vec::new();
    for (request, &cells) in requests.iter().zip(sizes) {
        let sent = Instant::now();
        let reply = client.request_json(request);
        let latency = sent.elapsed().as_secs_f64() * 1e3;
        let outcomes = classify_reply(&reply, cells);
        if outcomes.iter().all(|o| *o == Outcome::Done) {
            pass.latencies_ms.push(latency);
        }
        for o in &outcomes {
            pass.tally.record(*o);
        }
        let Ok(response) = reply else { continue };
        let results = response.field_arr("results").unwrap_or(&[]);
        for (result, outcome) in results.iter().zip(&outcomes) {
            if *outcome != Outcome::Done {
                continue;
            }
            pass.cells += 1;
            let cell = result
                .field("cell")
                .map(Json::render_compact)
                .unwrap_or_default();
            served.push(Served {
                key: result.field_hex_u64("key").unwrap_or(0),
                defense: result
                    .field("cell")
                    .and_then(|c| c.field("scenario"))
                    .and_then(|s| s.field_str("defense"))
                    .unwrap_or("?")
                    .to_string(),
                cache_hit: result.field_bool("cache_hit").unwrap_or(false),
                wall_us: result.field_u64("wall_micros").unwrap_or(0),
                queue_us: result.field_u64("queue_micros").unwrap_or(0),
                estimate_us: result.field_u64("estimate_micros").unwrap_or(0),
                rendered: cell,
            });
        }
    }
    served
}

impl ServeWorkload {
    fn served(&mut self) -> (Pass, Vec<Served>) {
        let live = self.live.as_mut().expect("cold_start precedes every pass");
        let started = Instant::now();
        let results: Vec<(Pass, Vec<Served>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = live
                .clients
                .iter_mut()
                .zip(&self.requests)
                .zip(&self.sizes)
                .map(|((client, requests), sizes)| {
                    scope.spawn(move || {
                        let mut pass = Pass::default();
                        let served = drive(client, requests, sizes, &mut pass);
                        (pass, served)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut pass = Pass {
            wall: started.elapsed(),
            ..Pass::default()
        };
        let mut served = Vec::new();
        for (part, cells) in results {
            pass.cells += part.cells;
            pass.latencies_ms.extend(part.latencies_ms);
            pass.tally.merge(&part.tally);
            served.extend(cells);
        }
        for cell in &served {
            let id = format!("{:#018x}", cell.key);
            match pass.outputs.get(&id) {
                Some(seen) if *seen != cell.rendered => {
                    pass.errors
                        .push(format!("{id}: served twice with different bytes"));
                }
                Some(_) => {}
                None => {
                    match self.committed.check(cell.key, &cell.rendered) {
                        Some(Ok(())) => pass.committed_matches += 1,
                        Some(Err(e)) => pass.errors.push(e),
                        None => {}
                    }
                    pass.outputs.insert(id, cell.rendered.clone());
                }
            }
        }
        (pass, served)
    }
}

/// Repeat share of a pass: served cells that were cache hits.
fn hit_share(served: &[Served]) -> f64 {
    if served.is_empty() {
        0.0
    } else {
        served.iter().filter(|s| s.cache_hit).count() as f64 / served.len() as f64
    }
}

impl Workload for ServeWorkload {
    fn cold_start(&mut self, scratch: &mut Scratch) -> Result<(), String> {
        self.plan_next_pass();
        let socket = scratch.fresh()?.join("serve.sock");
        let listener = BoundListener::bind(&Endpoint::Unix(socket.clone()))?;
        let config = ServerConfig {
            workers: WORKERS,
            ..ServerConfig::standard(true)
        };
        let server = SweepServer::new(config, self.cost);
        let server =
            std::thread::spawn(move || listener.serve(server, Some(Duration::from_secs(120))));
        let mut clients: Vec<ServiceClient> = (0..WORKERS).map(|_| client(&socket)).collect();
        for (c, client) in clients.iter_mut().enumerate() {
            let grant = Json::obj()
                .with("op", Json::str("budget"))
                .with("client", Json::str(format!("client{c}")))
                .with("grant_micros", Json::uint(GRANT_MICROS))
                .with("txn", Json::str(format!("grant-{c}")));
            let reply = client.request_json(&grant)?;
            if reply.field_bool("ok") != Ok(true) {
                return Err(format!("budget grant refused: {}", reply.render_compact()));
            }
        }
        self.live = Some(Live {
            socket,
            server,
            clients,
        });
        Ok(())
    }

    fn pass(&mut self, traced: bool) -> Pass {
        let (mut pass, served) = self.served();
        self.hit_shares.push(hit_share(&served));
        if traced {
            match self.stats() {
                Ok(stats) => {
                    self.executor = stats
                        .field("stats")
                        .and_then(|s| s.field("executor"))
                        .ok()
                        .cloned()
                }
                Err(e) => pass.errors.push(format!("stats: {e}")),
            }
            let mut layers = layers::zeroed();
            let computed: Vec<&Served> = served.iter().filter(|s| !s.cache_hit).collect();
            let wall: Vec<f64> = computed.iter().map(|s| s.wall_us as f64 / 1e3).collect();
            let queue: Vec<f64> = computed.iter().map(|s| s.queue_us as f64 / 1e3).collect();
            let price: Vec<f64> = computed
                .iter()
                .filter(|s| s.wall_us > 0)
                .map(|s| s.estimate_us as f64 / s.wall_us as f64)
                .collect();
            layers.insert("server.cell_wall_ms", median(&wall));
            layers.insert("server.cell_queue_ms", median(&queue));
            layers.insert("server.cache_hit_ratio", hit_share(&served));
            layers.insert("server.price_ratio", median(&price));
            let mut per_defense: BTreeMap<String, u64> = BTreeMap::new();
            for s in &computed {
                *per_defense.entry(s.defense.clone()).or_insert(0) += 1;
            }
            self.computed_by_defense = per_defense;
            pass.layers = Some(layers);
        }
        pass
    }

    fn teardown(&mut self) {
        if let Some(mut live) = self.live.take() {
            let _ = live.clients[0].request_json(&Json::obj().with("op", Json::str("shutdown")));
            drop(live.clients);
            match live.server.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("serve_mix: server on {}: {e}", live.socket.display()),
                Err(_) => eprintln!("serve_mix: server thread panicked"),
            }
        }
    }

    fn layers(&mut self, pass: &Pass, snapshot: &dd_obs::Snapshot) -> Layers {
        let mut layers = pass.layers.clone().unwrap_or_else(layers::zeroed);
        layers::from_snapshot(snapshot, &mut layers);
        let counts: Vec<(DefenseKind, u64)> = self
            .computed_by_defense
            .iter()
            .filter_map(|(label, n)| Some((DefenseKind::parse(label)?, *n)))
            .collect();
        let base = SweepBase::standard(true);
        let device = self.specs[0].device.config();
        let probe = self.probe.get_or_insert_with(|| {
            let matrix = MatrixSpec::load(0);
            let mut probe = layers::probe(matrix.victim(), matrix.attack(), base.budget());
            layers::probe_defenses(
                &mut probe,
                matrix.victim(),
                &DefenseKind::TABLE3,
                matrix.attack(),
                base.budget(),
                &device,
            );
            probe
        });
        let computed: u64 = counts.iter().map(|(_, n)| n).sum();
        probe.fill(computed as usize, &mut layers);
        let (prepare, deploy) = counts.iter().fold((0.0, 0.0), |(p, d), (kind, n)| {
            let (kp, kd) = probe
                .defense_s
                .get(kind.label())
                .copied()
                .unwrap_or_default();
            (p + kp * *n as f64, d + kd * *n as f64)
        });
        layers.insert("defense.prepare_s", prepare);
        layers.insert("attack.profile_s", deploy);
        if let Some(executor) = &self.executor {
            let busy: Vec<f64> = executor
                .field_arr("workers")
                .unwrap_or(&[])
                .iter()
                .filter_map(|w| w.field_f64("busy_fraction").ok())
                .collect();
            let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
            layers.insert("executor.busy_fraction", mean);
            layers.insert(
                "executor.stolen",
                executor.field_u64("stolen").unwrap_or(0) as f64,
            );
        }
        // Client-side waiting the server's own spans do not cover:
        // transport, framing, and waits for the server lock.
        let waited: f64 = pass.latencies_ms.iter().sum::<f64>() / 1e3;
        let spans: f64 = [
            "server.parse",
            "server.shed",
            "server.execute",
            "server.resolve",
            "server.respond",
        ]
        .iter()
        .map(|name| snapshot.span_total_ns(name) as f64 / 1e9)
        .sum();
        layers.insert("trace.unattributed_s", waited - spans);
        layers
    }

    fn finish(&mut self, passes: &[&Pass]) -> Vec<String> {
        let mut errors = Vec::new();
        let base = SweepBase::standard(true);
        let twins = match load_matrix_twins(self.seed, &self.committed) {
            Ok(twins) => twins,
            Err(e) => return vec![format!("serve_mix twins: {e}")],
        };
        for spec in &self.specs {
            let (_, key) = base.cell_key(spec);
            if !twins.contains_key(&format!("{key:#018x}")) {
                errors.push(format!("{}: no load_matrix twin for its key", spec.label()));
            }
        }
        let mut checked = BTreeSet::new();
        for pass in passes {
            for (id, rendered) in &pass.outputs {
                checked.insert(id.clone());
                match twins.get(id) {
                    Some(twin) if twin == rendered => {}
                    Some(_) => errors.push(format!(
                        "{id}: served cell differs from its load_matrix twin"
                    )),
                    None => errors.push(format!("{id}: served cell is outside load_matrix")),
                }
            }
        }
        if checked.is_empty() {
            errors.push("serve_mix served no cells".to_string());
        }
        errors
    }

    fn describe(&self, passes: &[&Pass]) -> Vec<String> {
        let served: u64 = passes.iter().map(|p| p.cells).sum();
        let distinct: usize = passes.iter().map(|p| p.outputs.len()).sum();
        let repeats = 1.0 - distinct as f64 / served.max(1) as f64;
        vec![
            format!(
                "serve_mix: {WORKERS} closed-loop clients x {REQUESTS_PER_CLIENT} submits of 1-{MAX_CELLS_PER_REQUEST} cells per pass, a fresh schedule and server each pass, over a {}-cell universe",
                self.specs.len()
            ),
            format!(
                "serve_mix: repeat share {repeats:.3} of {served} served cells (repeats an earlier cell of its pass); measured cache-hit share, median over passes: {:.3}",
                median(&self.hit_shares)
            ),
            format!(
                "seed {}: request schedules (Zipf ranking, sizes, draws) and second device lpddr4_small@{}",
                self.seed,
                threshold_for(self.seed)
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let universe = universe(2024).len();
        assert_eq!(universe, 72);
        let a = schedule(2024, 0, universe);
        assert_eq!(a, schedule(2024, 0, universe));
        assert_ne!(a, schedule(2025, 0, universe));
        assert_ne!(a, schedule(2024, 1, universe));
        assert_eq!(a.len(), WORKERS);
        for submits in &a {
            assert_eq!(submits.len(), REQUESTS_PER_CLIENT);
            for cells in submits {
                assert!((1..=MAX_CELLS_PER_REQUEST).contains(&cells.len()));
                assert!(cells.iter().all(|&c| c < universe));
                let distinct: BTreeSet<_> = cells.iter().collect();
                assert_eq!(distinct.len(), cells.len());
            }
        }
        assert_eq!(universe_labels(2024), universe_labels(2024));
        assert_ne!(universe_labels(2024), universe_labels(2025));
    }

    fn universe_labels(seed: u64) -> Vec<String> {
        universe(seed).iter().map(CellSpec::label).collect()
    }

    #[test]
    fn about_half_of_the_requested_cells_repeat() {
        for seed in 0..20 {
            let plan = schedule(seed, seed % 3, 72);
            let cells: Vec<usize> = plan.iter().flatten().flatten().copied().collect();
            let distinct: BTreeSet<_> = cells.iter().collect();
            let repeat = 1.0 - distinct.len() as f64 / cells.len() as f64;
            assert!(
                (0.3..=0.7).contains(&repeat),
                "seed {seed}: repeat share {repeat}"
            );
        }
    }
}
