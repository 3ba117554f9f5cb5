//! What the four workloads share: the closed-loop drivers, the sample
//! record, fault injection for `--self-test`, and the end-to-end summary.
//!
//! A workload's requests come in *units*: fixed, seeded lists of requests
//! that the driver plays whole, in rotation. Stopping only at unit
//! boundaries makes every run of a seed measure the same request mix,
//! however many units fit into `--seconds`; a traced run records spans on
//! every other unit, so traced and untraced time are compared on identical
//! requests.

use std::collections::BTreeMap;

use crate::alloc::Records;
use crate::surface::{self, CompressError, Field2D, FieldView};
use crate::trace::{now_ns, Tracer};
use crate::verify::{self, Failure, Quality};

/// What `--self-test` does to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Move one reconstructed cell beyond the bound before verification.
    PerturbCell,
    /// Replace the layer's reply by an error.
    ForgeError,
}

/// Requests (by id within the measured phase) that `--self-test` breaks.
const PERTURBED_REQUEST: u64 = 3;
const FORGED_REQUEST: u64 = 5;

#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// Which request of the unit this is: the same number means the same
    /// inputs, so outputs of equal `combo` are equal.
    pub combo: u32,
    /// Which unit played, counting from 0.
    pub unit: u32,
    pub id: u64,
    pub push_ns: u64,
    pub traced: bool,
    pub fault: Fault,
}

#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub combo: u32,
    /// Order in which the requests of the phase were issued.
    pub id: u64,
    pub unit: u32,
    pub traced: bool,
    /// Time in the layer calls only; verification is outside it.
    pub lat_ns: u64,
    /// Pop (or start) to verified.
    pub service_ns: u64,
    /// Push stamp to pop; 0 without a queue.
    pub wait_ns: u64,
    /// Uncompressed bytes delivered.
    pub raw_bytes: u64,
    /// Bytes the layer put out for them (0 where a read has none).
    pub out_bytes: u64,
    pub quality: Option<Quality>,
    pub failure: Option<Failure>,
    /// Two workload-specific numbers (see each workload).
    pub aux: [f64; 2],
}

impl Sample {
    /// File the verifier's verdict.
    pub fn judged(mut self, verdict: Result<Quality, Failure>) -> Sample {
        match verdict {
            Ok(quality) => self.quality = Some(quality),
            Err(failure) => self.failure = Some(failure),
        }
        self
    }
}

/// The verdict on one request: error returns, shape, finiteness, bound.
pub fn judge(
    outcome: Result<(), CompressError>,
    original: &FieldView<'_>,
    recon: &mut Field2D,
    bound: f64,
    fault: Fault,
) -> Result<Quality, Failure> {
    let outcome = match fault {
        Fault::ForgeError => Err(CompressError::Internal("forged by --self-test".into())),
        _ => outcome,
    };
    outcome.map_err(|e| Failure::Error(e.to_string()))?;
    if fault == Fault::PerturbCell && recon.shape() == original.shape() {
        let v = recon.at(0, 0);
        recon.set(0, 0, v + 4.0 * bound);
    }
    verify::check(original, recon, bound)
}

/// One closed-loop client: its state, its spans, its samples.
pub struct Client<S> {
    pub state: S,
    pub tracer: Tracer,
    pub samples: Records<Sample>,
}

impl<S> Client<S> {
    pub fn new(state: S) -> Self {
        Client { state, tracer: Tracer::new(), samples: Records::new() }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Units(usize),
    Seconds(f64),
}

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub stop: Stop,
    /// Record spans on every other unit played.
    pub trace: bool,
    pub self_test: bool,
}

#[derive(Debug, Default)]
pub struct Phase {
    pub wall_s: f64,
    pub units: usize,
    /// How many unit lists the driver rotated through: unit `u` played
    /// list `u % kinds`.
    pub kinds: usize,
    /// How long each unit took: from its first request being issued to the
    /// next unit's (for the last one, to the end of the phase).
    pub unit_ns: Vec<u64>,
    /// Time the producer spent in each `push` (queue drivers only).
    pub push_block_ns: Records<u64>,
    pub job_panics: u64,
}

impl Plan {
    fn req(&self, combo: u32, id: u64, unit: usize, traced: bool) -> Req {
        let fault = match id {
            PERTURBED_REQUEST if self.self_test => Fault::PerturbCell,
            FORGED_REQUEST if self.self_test => Fault::ForgeError,
            _ => Fault::None,
        };
        Req { combo, unit: unit as u32, id, push_ns: 0, traced, fault }
    }

    /// Whether spans are recorded on the `played`-th unit played, when the
    /// units are `n_units` lists played in rotation: every other one, such
    /// that over two rotations each list is played once with and once
    /// without spans.
    fn traces(&self, played: usize, n_units: usize) -> bool {
        let flip = if n_units.is_multiple_of(2) { played / n_units } else { 0 };
        self.trace && (played + flip).is_multiple_of(2)
    }

    fn done(&self, units: usize, start_ns: u64) -> bool {
        match self.stop {
            Stop::Units(n) => units >= n,
            Stop::Seconds(s) => (now_ns() - start_ns) as f64 >= s * 1e9,
        }
    }
}

fn finish<S>(client: &mut Client<S>, req: &Req, pop_ns: u64, mut sample: Sample) {
    sample.combo = req.combo;
    sample.id = req.id;
    sample.unit = req.unit;
    sample.traced = req.traced;
    sample.wait_ns = pop_ns - req.push_ns.min(pop_ns);
    sample.service_ns = now_ns() - pop_ns;
    client.samples.push(sample);
}

/// One client on the calling thread; the layers bring their own pool.
pub fn drive_direct<S>(
    client: &mut Client<S>,
    units: &[Vec<u32>],
    plan: Plan,
    serve: impl Fn(&mut S, &mut Tracer, &Req) -> Sample,
) -> Phase {
    let start_ns = now_ns();
    let mut phase = Phase { kinds: units.len(), ..Phase::default() };
    let mut id = 0u64;
    loop {
        let unit_start = now_ns();
        let traced = plan.traces(phase.units, units.len());
        for &combo in &units[phase.units % units.len()] {
            let mut req = plan.req(combo, id, phase.units, traced);
            req.push_ns = now_ns();
            client.tracer.start_request(id, req.traced);
            let tok = client.tracer.begin_at("request", req.push_ns);
            let sample = serve(&mut client.state, &mut client.tracer, &req);
            client.tracer.end(tok);
            finish(client, &req, req.push_ns, sample);
            id += 1;
        }
        phase.units += 1;
        phase.unit_ns.push(now_ns() - unit_start);
        if plan.done(phase.units, start_ns) {
            break;
        }
    }
    phase.wall_s = (now_ns() - start_ns) as f64 / 1e9;
    phase
}

/// `clients.len()` clients fed through `lcc_par`'s bounded queue by a
/// producer on the calling thread. The queue holds as many requests as
/// there are clients, so a request waits about one service time.
pub fn drive_queue<S: Send>(
    clients: &mut [Client<S>],
    units: &[Vec<u32>],
    plan: Plan,
    serve: impl Fn(&mut S, &mut Tracer, &Req) -> Sample + Sync,
) -> Phase {
    let start_ns = now_ns();
    let mut phase = Phase { kinds: units.len(), ..Phase::default() };
    let capacity = clients.len();
    let (push_block_ns, played, unit_starts) =
        (&mut phase.push_block_ns, &mut phase.units, &mut Vec::new());
    phase.job_panics = surface::run_queue(
        clients,
        capacity,
        |push: &dyn Fn(Req)| {
            let mut id = 0u64;
            loop {
                unit_starts.push(now_ns());
                let traced = plan.traces(*played, units.len());
                for &combo in &units[*played % units.len()] {
                    let mut req = plan.req(combo, id, *played, traced);
                    req.push_ns = now_ns();
                    push(req);
                    push_block_ns.push(now_ns() - req.push_ns);
                    id += 1;
                }
                *played += 1;
                if plan.done(*played, start_ns) {
                    break;
                }
            }
        },
        |client: &mut Client<S>, _worker, req: Req| {
            let pop_ns = now_ns();
            client.tracer.start_request(req.id, req.traced);
            let tok = client.tracer.begin_at("request", req.push_ns);
            client.tracer.leaf("par.queue_wait", req.push_ns, pop_ns);
            let sample = serve(&mut client.state, &mut client.tracer, &req);
            client.tracer.end(tok);
            finish(client, &req, pop_ns, sample);
        },
    );
    let end_ns = now_ns();
    unit_starts.push(end_ns);
    phase.unit_ns = unit_starts.windows(2).map(|w| w[1] - w[0]).collect();
    phase.wall_s = (end_ns - start_ns) as f64 / 1e9;
    phase
}

/// The end-to-end numbers of a measured phase.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    pub req_per_s: f64,
    pub mb_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// Distinct requests `p50_ms` and `p90_ms` are percentiles over.
    pub distinct: u64,
    /// Σ uncompressed ÷ Σ output bytes over the *distinct* requests of the
    /// run, so the number does not depend on how many repeats fit.
    pub ratio: f64,
    pub first_failure: Option<String>,
}

/// Where among the plays of one distinct request, or of one unit, its time
/// is read: the first decile, nearest rank. What slows a play from outside
/// the process (this sandbox has such bursts, seconds long, several a
/// minute) only ever adds to its time, so the quick end of the plays is the
/// program's own time and the median is the program's plus the host's.
pub const QUIET: f64 = 10.0;

/// The time at [`QUIET`] among `plays` of the same work.
pub fn quiet(plays: &mut [u64]) -> u64 {
    crate::stats::percentile(plays, QUIET)
}

/// A *distinct request* is a position in one of the `phase.kinds` unit
/// lists; every play of its unit repeats it with the same inputs. Its
/// latency is the [`quiet`] one of its plays, and `p50_ms` / `p90_ms` are
/// percentiles over the distinct requests, each counted once, as the mix
/// has them. Throughput is the requests (and bytes) one rotation through
/// the unit lists verifies by the sum of the lists' [`quiet`] durations.
pub fn summarize<'a>(samples: impl Iterator<Item = &'a Sample>, phase: &Phase) -> Summary {
    let mut s = Summary::default();
    let kinds = phase.kinds.max(1);
    let mut samples: Vec<&Sample> = samples.collect();
    samples.sort_by_key(|sample| sample.id);
    let mut plays: BTreeMap<(usize, u64), Vec<u64>> = BTreeMap::new();
    let mut distinct: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    // Verified requests and bytes of every play of each kind of unit.
    let mut verified = vec![(0u64, 0u64); kinds];
    let (mut unit, mut unit_first_id) = (u32::MAX, 0);
    for sample in samples {
        if sample.unit != unit {
            (unit, unit_first_id) = (sample.unit, sample.id);
        }
        s.attempted += 1;
        if let Some(failure) = &sample.failure {
            s.failed += 1;
            s.first_failure.get_or_insert_with(|| format!("request {}: {failure:?}", sample.id));
            continue;
        }
        let kind = sample.unit as usize % kinds;
        plays.entry((kind, sample.id - unit_first_id)).or_default().push(sample.lat_ns);
        verified[kind] = (verified[kind].0 + 1, verified[kind].1 + sample.raw_bytes);
        distinct.insert(sample.combo, (sample.raw_bytes, sample.out_bytes));
    }
    s.distinct = plays.len() as u64;
    let mut lat: Vec<u64> = plays.into_values().map(|mut v| quiet(&mut v)).collect();
    s.p50_ms = crate::stats::percentile(&mut lat, 50.0) as f64 / 1e6;
    s.p90_ms = crate::stats::percentile(&mut lat, 90.0) as f64 / 1e6;

    let (mut requests, mut bytes, mut ns) = (0.0, 0.0, 0u64);
    for (kind, &(n, b)) in verified.iter().enumerate() {
        let mut times: Vec<u64> = phase.unit_ns.iter().skip(kind).step_by(kinds).copied().collect();
        if !times.is_empty() {
            requests += n as f64 / times.len() as f64;
            bytes += b as f64 / times.len() as f64;
            ns += quiet(&mut times);
        }
    }
    if ns > 0 {
        s.req_per_s = requests * 1e9 / ns as f64;
        s.mb_per_s = bytes * 1e3 / ns as f64;
    }
    let (raw, out) = distinct.values().fold((0u64, 0u64), |(r, o), &(dr, d_o)| (r + dr, o + d_o));
    s.ratio = if out > 0 { raw as f64 / out as f64 } else { 0.0 };
    s
}

/// `VmHWM` of this process, in 10⁶ bytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_sample(combo: u32, lat_ns: u64, raw: u64, out: u64) -> Sample {
        Sample { combo, lat_ns, raw_bytes: raw, out_bytes: out, ..Sample::default() }
    }

    #[test]
    fn summary_counts_failures_and_dedupes_the_ratio() {
        let mut samples = vec![
            ok_sample(0, 1_000_000, 100, 10),
            ok_sample(1, 3_000_000, 100, 40),
            ok_sample(0, 2_000_000, 100, 10),
        ];
        samples.push(Sample { failure: Some(Failure::NonFinite), ..ok_sample(2, 9, 100, 1) });
        for (id, (sample, unit)) in samples.iter_mut().zip([0, 0, 1, 1]).enumerate() {
            (sample.id, sample.unit) = (id as u64, unit);
        }
        let phase =
            Phase { kinds: 1, unit_ns: vec![1_000_000_000, 4_000_000_000], ..Phase::default() };
        let s = summarize(samples.iter(), &phase);
        assert_eq!((s.attempted, s.failed, s.distinct), (4, 1, 2));
        assert_eq!(s.req_per_s, 1.5, "3 verified over 2 plays, by the quicker play's second");
        assert_eq!(s.mb_per_s, 150.0 / 1e6);
        assert_eq!(s.p50_ms, 1.0, "the first request's quicker play");
        assert_eq!(s.p90_ms, 3.0, "the second request's only verified play");
        assert_eq!(s.ratio, 200.0 / 50.0, "combo 0 counts once, the failure not at all");
        assert!(s.first_failure.unwrap().contains("NonFinite"));
    }

    #[test]
    fn stalled_plays_move_neither_the_percentiles_nor_the_rate() {
        // One list of ten requests of 1…10 ms, played ten times in 40 ms
        // each; three of the plays stall.
        let mut samples: Vec<Sample> = (0..100u64)
            .map(|id| Sample {
                id,
                unit: (id / 10) as u32,
                ..ok_sample((id % 10) as u32, (id % 10 + 1) * 1_000_000, 8, 1)
            })
            .collect();
        let mut phase = Phase { kinds: 1, unit_ns: vec![40_000_000; 10], ..Phase::default() };
        let calm = summarize(samples.iter(), &phase);
        assert_eq!((calm.p50_ms, calm.p90_ms, calm.distinct), (5.0, 9.0, 10));
        assert_eq!((calm.req_per_s, calm.mb_per_s), (250.0, 0.002));
        for slow in &mut samples[30..60] {
            slow.lat_ns *= 100;
        }
        phase.unit_ns[3..6].fill(4_000_000_000);
        let stalled = summarize(samples.iter(), &phase);
        assert_eq!((stalled.p50_ms, stalled.p90_ms), (5.0, 9.0));
        assert_eq!((stalled.req_per_s, stalled.mb_per_s), (250.0, 0.002));
        assert_eq!(summarize([].iter(), &Phase::default()).p50_ms, 0.0);
    }

    #[test]
    fn a_rotation_of_unit_lists_is_timed_list_by_list() {
        // Two lists of one request each, 1 s and 3 s, two plays of both:
        // equal positions of different lists are different requests.
        let samples: Vec<Sample> = (0..4u64)
            .map(|id| Sample {
                id,
                unit: id as u32,
                ..ok_sample((id % 2) as u32, (1 + 2 * (id % 2)) * 1_000_000_000, 8, 1)
            })
            .collect();
        let unit_ns = vec![1_000_000_000, 3_000_000_000, 1_100_000_000, 3_300_000_000];
        let s = summarize(samples.iter(), &Phase { kinds: 2, unit_ns, ..Phase::default() });
        assert_eq!((s.distinct, s.p50_ms, s.p90_ms), (2, 1000.0, 3000.0));
        assert_eq!(s.req_per_s, 0.5, "two requests a rotation of 1 s + 3 s");
    }

    #[test]
    fn self_test_faults_turn_good_requests_into_failures() {
        let original = Field2D::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let mut recon = original.clone();
        assert!(judge(Ok(()), &original.view(), &mut recon, 1e-3, Fault::None).is_ok());
        let forged = judge(Ok(()), &original.view(), &mut recon, 1e-3, Fault::ForgeError);
        assert!(matches!(forged, Err(Failure::Error(_))));
        let perturbed = judge(Ok(()), &original.view(), &mut recon, 1e-3, Fault::PerturbCell);
        assert!(matches!(perturbed, Err(Failure::Bound { .. })));
    }

    #[test]
    fn direct_driver_replays_whole_units_and_traces_every_other_one() {
        let mut client = Client::new(0u32);
        let plan = Plan { stop: Stop::Units(3), trace: true, self_test: false };
        let phase = drive_direct(&mut client, &[vec![7, 8]], plan, |count, tracer, req| {
            *count += 1;
            tracer.span("layer", 0, |_| ());
            Sample { raw_bytes: req.combo as u64, ..Sample::default() }
        });
        assert_eq!((phase.units, client.state, client.samples.len()), (3, 6, 6));
        assert_eq!(phase.unit_ns.len(), 3);
        let units: Vec<u32> = client.samples.iter().map(|s| s.unit).collect();
        assert_eq!(units, [0, 0, 1, 1, 2, 2]);
        let traced: Vec<bool> = client.samples.iter().map(|s| s.traced).collect();
        assert_eq!(traced, [true, true, false, false, true, true]);
        let names: Vec<_> = client.tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["request", "layer"].repeat(4));
    }

    #[test]
    fn an_even_rotation_traces_each_unit_once_in_two_passes() {
        let plan = Plan { stop: Stop::Units(8), trace: true, self_test: false };
        let traced: Vec<bool> = (0..8).map(|played| plan.traces(played, 4)).collect();
        assert_eq!(traced, [true, false, true, false, false, true, false, true]);
        let odd: Vec<bool> = (0..6).map(|played| plan.traces(played, 3)).collect();
        assert_eq!(odd, [true, false, true, false, true, false]);
    }

    #[test]
    fn queue_driver_serves_every_request_once() {
        let mut clients: Vec<Client<()>> = (0..3).map(|_| Client::new(())).collect();
        let plan = Plan { stop: Stop::Units(2), trace: true, self_test: false };
        let units = [(0..10).collect::<Vec<u32>>()];
        let phase = drive_queue(&mut clients, &units, plan, |_, _, req| Sample {
            raw_bytes: req.id,
            ..Sample::default()
        });
        let mut ids: Vec<u64> =
            clients.iter().flat_map(|c| c.samples.iter().map(|s| s.raw_bytes)).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).collect::<Vec<u64>>());
        assert_eq!((phase.units, phase.push_block_ns.len(), phase.job_panics), (2, 20, 0));
        assert_eq!(phase.unit_ns.len(), 2);
        assert!(phase.unit_ns.iter().sum::<u64>() as f64 <= phase.wall_s * 1e9 + 1.0);
        let waits = clients.iter().flat_map(|c| c.tracer.spans()).filter(|s| s.parent == 0);
        assert!(waits.count() >= 1, "queue waits hang off their request");
    }
}
