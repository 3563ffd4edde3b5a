//! Config fuzzer: random policy/geometry/workload combinations replayed
//! through the differential oracle, with delta-debugging shrinking and a
//! JSON repro format. Each case also yields mutated inputs for the two
//! parsers of user files (see [`fuzz_parsers`]).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

use fabric::{FabricConfig, Topology};
use least_tlb::trace::{TraceEntry, TranslationTrace};
use least_tlb::{Inclusion, Policy, ReceiverPolicy, SystemConfig, WorkloadSpec};
use serde::{Deserialize, Serialize};
use tlb::{ReplacementPolicy, TlbConfig};
use workloads::{single_app_kinds, Placement};

use crate::mirror::{app_footprints, MirrorBug};
use crate::oracle::{run_serial_with_bug, OracleReport};
use crate::{Access, Gen};

/// One fuzz case: a flat, JSON-serializable encoding of a configuration
/// plus a scripted access sequence. Every field is interpreted modulo its
/// valid range (see [`FuzzCase::sanitized`]), so *any* mutation — by the
/// generator or the shrinker — yields a runnable case.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuzzCase {
    /// GPU count (clamped to 1..=4).
    pub gpus: u8,
    /// Placement mode: 0 = one app on all GPUs, 1 = one app per GPU,
    /// 2 = two apps co-resident on all GPUs.
    pub mode: u8,
    /// First app kind (index into `single_app_kinds()`).
    pub kind_a: u8,
    /// Second app kind (modes 1 and 2).
    pub kind_b: u8,
    /// Inclusion: 0 = mostly-inclusive, 1 = least-inclusive, 2 = exclusive.
    pub inclusion: u8,
    /// Tracker: 0 = none, 1 = small cuckoo, 2 = exact, 3 = counting bloom.
    pub tracker: u8,
    /// Enable IOMMU→L2 spilling.
    pub spilling: bool,
    /// Spill credits (0..=3).
    pub spill_credits: u8,
    /// Infinite IOMMU TLB limit study (forces tracker off).
    pub infinite: bool,
    /// Valkyrie-style ring probing (forces tracker off).
    pub ring: bool,
    /// Per-GPU local page tables.
    pub local_pt: bool,
    /// Serialize the remote probe before the walk.
    pub serialize_remote: bool,
    /// Spill receiver: 0 = min-counter, 1 = round-robin, 2 = fixed.
    pub receiver: u8,
    /// IOMMU quota: 0 = none, else `quota - 1` entries.
    pub quota: u8,
    /// Enable a small page-walk cache.
    pub pwc: bool,
    /// L2 geometry: entries = `16 << (l2_entries % 4)`.
    pub l2_entries: u8,
    /// L2 associativity selector (ways = a power of two ≤ entries).
    pub l2_ways: u8,
    /// L2 replacement: 0 = LRU, 1 = FIFO, 2 = random.
    pub replacement: u8,
    /// IOMMU TLB geometry: entries = `64 << (iommu_entries % 4)`.
    pub iommu_entries: u8,
    /// IOMMU associativity selector.
    pub iommu_ways: u8,
    /// GPU↔GPU latency (`1 + inter_gpu % 300`).
    pub inter_gpu: u16,
    /// GPU↔IOMMU latency (`1 + gpu_iommu % 300`).
    pub gpu_iommu: u16,
    /// Interconnect fabric section: 0 = none (the pre-fabric flat shim),
    /// 1 = flat, 2 = ring, 3 = 2-D mesh, 4 = switch (modulo 5).
    pub fabric_topology: u8,
    /// Fabric link-latency regime: even = fast links (7/13 cycles),
    /// odd = slow links (300/450 cycles). Both regimes keep the GPU and
    /// IOMMU per-hop latencies distinct so probe-vs-walk races exercise
    /// both orders without depending on equal-latency tie-breaks.
    pub fabric_link: u8,
    /// Per-message link serialization cycles (`% 4`; 0 = infinite
    /// bandwidth, which makes `flat` match the pre-fabric model exactly).
    pub fabric_message_cycles: u8,
    /// Flat walk latency (`1 + walk % 600`).
    pub walk: u16,
    /// Workload seed.
    pub seed: u64,
    /// The scripted access sequence (VPNs are folded into the app's
    /// footprint at run time).
    pub entries: Vec<Access>,
}

fn pow2_ways(entries: usize, selector: u8) -> usize {
    let max_log = entries.trailing_zeros() as u8;
    1 << (selector % (max_log + 1))
}

impl FuzzCase {
    /// Normalizes the case so every mutation stays runnable: clamps the
    /// GPU count, drops the tracker for the policies that exclude it, and
    /// folds placement mode 1 away on single-GPU systems.
    #[must_use]
    pub fn sanitized(mut self) -> Self {
        self.gpus = self.gpus.clamp(1, 4);
        self.mode %= 3;
        if self.gpus < 2 {
            self.mode = 0;
        }
        if self.infinite || self.ring {
            self.tracker = 0;
        }
        // The serial oracle models Valkyrie ring probing over the flat
        // topology only (the probing ring is its own virtual ring, not a
        // route through the fabric); multi-hop topologies drop it.
        if self.fabric_topology % 5 >= 2 {
            self.ring = false;
        }
        self
    }

    /// The fabric section this case selects, if any.
    fn fabric_section(&self) -> Option<FabricConfig> {
        let topology = match self.fabric_topology % 5 {
            0 => return None,
            1 => Topology::Flat,
            2 => Topology::Ring,
            3 => Topology::Mesh2d,
            _ => Topology::Switch,
        };
        let (gpu_link, iommu_link) = if self.fabric_link.is_multiple_of(2) {
            (7, 13)
        } else {
            (300, 450)
        };
        Some(FabricConfig {
            topology,
            gpu_link_latency: Some(gpu_link),
            iommu_link_latency: Some(iommu_link),
            message_cycles: u64::from(self.fabric_message_cycles % 4),
            queue_capacity: 16,
        })
    }

    /// Expands the case into a simulator configuration and workload spec.
    #[must_use]
    pub fn to_config(&self) -> (SystemConfig, WorkloadSpec) {
        let case = self.clone().sanitized();
        let gpus = usize::from(case.gpus);
        let kinds = single_app_kinds();
        let kind = |i: u8| kinds[usize::from(i) % kinds.len()];
        let all: Vec<u8> = (0..case.gpus).collect();
        let placements = match case.mode {
            0 => vec![Placement {
                app: kind(case.kind_a),
                gpus: all,
            }],
            1 => vec![
                Placement {
                    app: kind(case.kind_a),
                    gpus: vec![0],
                },
                Placement {
                    app: kind(case.kind_b),
                    gpus: vec![1 % case.gpus],
                },
            ],
            _ => vec![
                Placement {
                    app: kind(case.kind_a),
                    gpus: all.clone(),
                },
                Placement {
                    app: kind(case.kind_b),
                    gpus: all,
                },
            ],
        };
        let spec = WorkloadSpec {
            placements,
            name: "fuzz".into(),
        };

        let replacement = match case.replacement % 3 {
            0 => ReplacementPolicy::Lru,
            1 => ReplacementPolicy::Fifo,
            _ => ReplacementPolicy::Random,
        };
        let l2_entries = 16usize << (case.l2_entries % 4);
        let iommu_entries = 64usize << (case.iommu_entries % 4);

        let mut cfg = SystemConfig::scaled_down(gpus);
        cfg.seed = case.seed;
        cfg.gpu.l2_tlb =
            TlbConfig::new(l2_entries, pow2_ways(l2_entries, case.l2_ways), replacement);
        cfg.iommu.tlb = TlbConfig::new(
            iommu_entries,
            pow2_ways(iommu_entries, case.iommu_ways),
            replacement,
        );
        cfg.iommu.walk_latency = pagetable_walk(1 + u64::from(case.walk) % 600);
        cfg.iommu.pwc = case
            .pwc
            .then(|| TlbConfig::new(16, 4, ReplacementPolicy::Lru));
        cfg.inter_gpu_latency = 1 + u64::from(case.inter_gpu) % 300;
        cfg.gpu_iommu_latency = 1 + u64::from(case.gpu_iommu) % 300;
        cfg.fabric = case.fabric_section();

        let tracker = match case.tracker % 4 {
            0 => None,
            1 => Some(filters::TrackerBackend::Cuckoo {
                entries_per_gpu: 64,
                fingerprint_bits: 4,
            }),
            2 => Some(filters::TrackerBackend::Exact),
            _ => Some(filters::TrackerBackend::Bloom {
                counters_per_gpu: 128,
                hashes: 3,
            }),
        };
        cfg.policy = Policy {
            inclusion: match case.inclusion % 3 {
                0 => Inclusion::MostlyInclusive,
                1 => Inclusion::LeastInclusive,
                _ => Inclusion::Exclusive,
            },
            tracker,
            spilling: case.spilling,
            spill_credits: case.spill_credits % 4,
            infinite_iommu: case.infinite,
            probing_ring: case.ring,
            local_page_tables: case.local_pt,
            serialize_remote: case.serialize_remote,
            spill_receiver: match case.receiver % 3 {
                0 => ReceiverPolicy::MinEvictionCounter,
                1 => ReceiverPolicy::RoundRobin,
                _ => ReceiverPolicy::Fixed,
            },
            iommu_quota: (case.quota > 0).then(|| u64::from(case.quota) - 1),
        };
        (cfg, spec)
    }
}

fn pagetable_walk(cycles: u64) -> pagetable::WalkLatency {
    pagetable::WalkLatency::Flat(cycles)
}

/// Draws a random case. Accesses mix a hot set (~1/8 of the footprint)
/// with cold sweeps so hits, misses, evictions and spills all occur.
pub fn generate(g: &mut Gen) -> FuzzCase {
    let n_entries = g.len(30, 160);
    let napps = 2u16;
    let mut case = FuzzCase {
        gpus: 1 + g.below(4) as u8,
        mode: g.below(3) as u8,
        kind_a: g.below(16) as u8,
        kind_b: g.below(16) as u8,
        inclusion: g.below(3) as u8,
        tracker: g.below(4) as u8,
        spilling: g.bool(),
        spill_credits: g.below(4) as u8,
        infinite: g.below(8) == 0,
        ring: g.below(8) == 0,
        local_pt: g.below(8) == 0,
        serialize_remote: g.bool(),
        receiver: g.below(3) as u8,
        quota: g.below(24) as u8,
        pwc: g.below(4) == 0,
        l2_entries: g.below(16) as u8,
        l2_ways: g.below(16) as u8,
        replacement: g.below(3) as u8,
        iommu_entries: g.below(16) as u8,
        iommu_ways: g.below(16) as u8,
        inter_gpu: g.below(1 << 16) as u16,
        gpu_iommu: g.below(1 << 16) as u16,
        fabric_topology: g.below(5) as u8,
        fabric_link: g.below(4) as u8,
        fabric_message_cycles: g.below(4) as u8,
        walk: g.below(1 << 16) as u16,
        seed: g.next(),
        entries: Vec::new(),
    };
    let gpus = u64::from(case.gpus.clamp(1, 4));
    for _ in 0..n_entries {
        // Raw VPN over a hot/cold split; folded into the app footprint by
        // the runner.
        let hot = g.below(3) != 0;
        let vpn = if hot { g.below(64) } else { g.below(1 << 20) };
        case.entries.push(Access {
            gpu: g.below(gpus) as u8,
            asid: (g.below(u64::from(napps))) as u16,
            vpn,
        });
    }
    case.sanitized()
}

/// Clamps the case's raw accesses onto the actual app placements and
/// footprints of its expanded configuration.
#[must_use]
pub fn concrete_accesses(case: &FuzzCase, cfg: &SystemConfig, spec: &WorkloadSpec) -> Vec<Access> {
    let footprints = app_footprints(cfg, spec);
    case.entries
        .iter()
        .map(|a| {
            let asid = u16::try_from(usize::from(a.asid) % spec.placements.len())
                .expect("app count fits u16");
            let gpus = &spec.placements[usize::from(asid)].gpus;
            let gpu = gpus[usize::from(a.gpu) % gpus.len()];
            // Fold hot VPNs into a small window, cold ones across the
            // whole footprint.
            let f = footprints[usize::from(asid)].max(1);
            Access {
                gpu,
                asid,
                vpn: a.vpn % f,
            }
        })
        .collect()
}

/// Runs one case through the oracle (optionally with a seeded mirror
/// bug), converting panics from either side into violations.
///
/// # Errors
///
/// Returns a description of the divergence or panic.
pub fn run_case_with_bug(case: &FuzzCase, bug: MirrorBug) -> Result<OracleReport, String> {
    let (cfg, spec) = case.to_config();
    let accesses = concrete_accesses(case, &cfg, &spec);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_serial_with_bug(&cfg, &spec, &accesses, bug)
    }));
    match outcome {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(d)) => Err(d.to_string()),
        Err(payload) => Err(format!("panic during replay: {}", panic_message(&*payload))),
    }
}

/// The message of a caught panic.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Runs one case through the faithful oracle.
///
/// # Errors
///
/// Returns a description of the divergence or panic.
pub fn run_case(case: &FuzzCase) -> Result<OracleReport, String> {
    run_case_with_bug(case, MirrorBug::None)
}

/// Delta-debugging shrinker: repeatedly removes chunks of the access
/// sequence (halving the chunk size down to single accesses), then tries
/// turning off policy features, keeping every simplification under which
/// `failing` still returns true. Deterministic: no randomness, so the
/// same failing case always shrinks to the same repro.
pub fn shrink(case: &FuzzCase, failing: impl Fn(&FuzzCase) -> bool) -> FuzzCase {
    let mut best = case.clone();
    // ddmin over the access sequence.
    let mut chunk = (best.entries.len() / 2).max(1);
    while chunk >= 1 {
        let mut i = 0;
        while i < best.entries.len() {
            let mut candidate = best.clone();
            let end = (i + chunk).min(candidate.entries.len());
            candidate.entries.drain(i..end);
            if !candidate.entries.is_empty() && failing(&candidate) {
                best = candidate; // keep the cut; retry at the same index
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    // Feature simplification: try switching each toggle to its simplest
    // value.
    let simplifications: Vec<fn(&mut FuzzCase)> = vec![
        |c| c.spilling = false,
        |c| c.pwc = false,
        |c| c.local_pt = false,
        |c| c.serialize_remote = false,
        |c| c.quota = 0,
        |c| c.ring = false,
        |c| c.infinite = false,
        |c| c.tracker = 0,
        |c| c.replacement = 0,
        |c| c.mode = 0,
        |c| c.inclusion = 0,
        // Fabric simplifications, most aggressive first: no fabric
        // section at all, then infinite bandwidth, then fast links.
        |c| c.fabric_topology = 0,
        |c| c.fabric_message_cycles = 0,
        |c| c.fabric_link = 0,
    ];
    for simplify in simplifications {
        let mut candidate = best.clone();
        simplify(&mut candidate);
        let candidate = candidate.sanitized();
        if candidate != best && failing(&candidate) {
            best = candidate;
        }
    }
    best
}

/// A parser of user input that [`fuzz_parsers`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parser {
    /// `serde_json::from_str::<SystemConfig>`.
    Config,
    /// [`TranslationTrace::read_from`], the `--replay-trace` reader.
    Trace,
}

/// An input on which a parser panicked, or failed to read back the
/// valid input it was derived from.
#[derive(Debug)]
pub struct ParserViolation {
    /// The parser at fault.
    pub parser: Parser,
    /// The input it was given.
    pub input: Vec<u8>,
    /// What went wrong.
    pub message: String,
}

/// Feeds the config and trace parsers inputs derived from `case`: its
/// expanded [`SystemConfig`] as JSON and a trace of its accesses in the
/// recorder's JSONL format, each as written and as a truncation, a few
/// bit flips and a spliced line. Malformed input must end in an error,
/// never a panic, and the valid inputs must read back to what was
/// written. Returns the number of inputs parsed: 8, four per parser.
///
/// # Errors
///
/// Returns the first input that violates this contract.
pub fn fuzz_parsers(case: &FuzzCase) -> Result<usize, ParserViolation> {
    let (cfg, spec) = case.to_config();
    let entries = concrete_accesses(case, &cfg, &spec)
        .iter()
        .zip(0..)
        .map(|(a, cycle)| TraceEntry {
            cycle,
            gpu: a.gpu,
            asid: a.asid,
            vpn: a.vpn,
        })
        .collect();
    let trace = TranslationTrace { spec, entries };
    let config_json = serde_json::to_string_pretty(&cfg)
        .expect("configs serialize")
        .into_bytes();
    let mut trace_jsonl = Vec::new();
    trace
        .write_to(&mut trace_jsonl)
        .expect("writing to memory cannot fail");
    let reads_back = |parser: Parser, input: &[u8]| match parser {
        Parser::Config => parse_config(input).is_ok_and(|c| c == cfg),
        Parser::Trace => TranslationTrace::read_from(input)
            .is_ok_and(|t| t.spec == trace.spec && t.entries == trace.entries),
    };
    // Mutations draw from their own generator, so the cases that follow
    // are unchanged by the parser targets.
    let mut g = Gen::new(case.seed);
    let mut inputs = 0;
    for (parser, valid) in [(Parser::Config, config_json), (Parser::Trace, trace_jsonl)] {
        inputs += 1;
        if !guarded(parser, &valid, |input| reads_back(parser, input))? {
            return Err(ParserViolation {
                parser,
                input: valid,
                message: "the valid input does not read back to what was written".into(),
            });
        }
        for input in mutations(&valid, &mut g) {
            inputs += 1;
            guarded(parser, &input, |input| match parser {
                Parser::Config => drop(parse_config(input)),
                Parser::Trace => drop(TranslationTrace::read_from(input)),
            })?;
        }
    }
    Ok(inputs)
}

fn parse_config(input: &[u8]) -> serde_json::Result<SystemConfig> {
    serde_json::from_str(&String::from_utf8_lossy(input))
}

/// Runs `parse` on `input`, turning a panic into a violation.
fn guarded<T>(
    parser: Parser,
    input: &[u8],
    parse: impl FnOnce(&[u8]) -> T,
) -> Result<T, ParserViolation> {
    catch_unwind(AssertUnwindSafe(|| parse(input))).map_err(|payload| ParserViolation {
        parser,
        input: input.to_vec(),
        message: format!("panic: {}", panic_message(&*payload)),
    })
}

/// Three mutations of `valid`: a truncation, one to four flipped bits,
/// and one line replaced by the head of a line spliced to the tail of
/// another.
fn mutations(valid: &[u8], g: &mut Gen) -> [Vec<u8>; 3] {
    let cut = |g: &mut Gen, bytes: &[u8]| g.below(bytes.len() as u64 + 1) as usize;
    let truncated = valid[..cut(g, valid)].to_vec();
    let mut flipped = valid.to_vec();
    for _ in 0..=g.below(4) {
        let i = g.below(flipped.len() as u64) as usize;
        flipped[i] ^= 1 << g.below(8);
    }
    let mut lines: Vec<&[u8]> = valid.split(|&b| b == b'\n').collect();
    let i = g.below(lines.len() as u64) as usize;
    let j = g.below(lines.len() as u64) as usize;
    let (head, tail) = (lines[i], lines[j]);
    let joined = [&head[..cut(g, head)], &tail[cut(g, tail)..]].concat();
    lines[i] = &joined;
    [truncated, flipped, lines.join(&b'\n')]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_are_sane() {
        let mut g = Gen::new(0xfeed);
        for _ in 0..50 {
            let case = generate(&mut g);
            assert!((1..=4).contains(&case.gpus));
            assert!(!(case.infinite && case.tracker != 0));
            assert!(!(case.ring && case.tracker != 0));
            assert!(!(case.ring && case.fabric_topology % 5 >= 2));
            assert!(!case.entries.is_empty());
            let (cfg, spec) = case.to_config();
            assert!(cfg.gpus >= 1);
            assert!(!spec.placements.is_empty());
        }
    }

    #[test]
    fn fabric_sections_expand_for_every_topology() {
        let mut g = Gen::new(0xfab);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let case = generate(&mut g);
            seen[usize::from(case.fabric_topology % 5)] = true;
            let (cfg, _) = case.to_config();
            match case.fabric_topology % 5 {
                0 => assert!(cfg.fabric.is_none()),
                _ => {
                    let f = cfg.fabric.expect("fabric section");
                    assert!(f.message_cycles < 4);
                    assert!(f.gpu_link_latency.is_some());
                    assert!(f.iommu_link_latency.is_some());
                    // The selected regime keeps link classes distinct.
                    assert_ne!(f.gpu_link_latency, f.iommu_link_latency);
                }
            }
        }
        assert!(seen.iter().all(|s| *s), "all topologies drawn: {seen:?}");
    }

    #[test]
    fn shrink_simplifies_fabric_fields_when_irrelevant() {
        let mut g = Gen::new(0x51ab);
        let mut case = generate(&mut g);
        case.fabric_topology = 3;
        case.fabric_link = 1;
        case.fabric_message_cycles = 3;
        // A predicate that ignores the fabric entirely: the shrinker must
        // strip the fabric section and its knobs.
        let small = shrink(&case, |c| !c.entries.is_empty());
        assert_eq!(small.fabric_topology, 0);
        assert_eq!(small.fabric_message_cycles, 0);
        assert_eq!(small.fabric_link, 0);
        assert_eq!(small.entries.len(), 1);
    }

    #[test]
    fn json_round_trip_preserves_case() {
        let mut g = Gen::new(0xabcd);
        let case = generate(&mut g);
        let json = serde_json::to_string(&case).expect("serializes");
        let back: FuzzCase = serde_json::from_str(&json).expect("parses");
        assert_eq!(case, back);
    }

    #[test]
    fn parser_targets_read_valid_input_and_survive_mutations() {
        let mut g = Gen::new(0x9a55);
        for _ in 0..20 {
            let case = generate(&mut g);
            assert_eq!(fuzz_parsers(&case).unwrap(), 8);
        }
    }

    #[test]
    fn parser_mutations_differ_from_the_valid_input() {
        let valid = b"{\n  \"a\": 1,\n  \"b\": [2, 3]\n}\n";
        let mut g = Gen::new(7);
        let mut changed = [0; 3];
        for _ in 0..50 {
            for (n, m) in changed.iter_mut().zip(mutations(valid, &mut g)) {
                *n += usize::from(m != valid);
            }
        }
        assert!(changed.iter().all(|&n| n > 25), "{changed:?}");
    }

    #[test]
    fn concrete_accesses_stay_in_bounds() {
        let mut g = Gen::new(0x5eed);
        let case = generate(&mut g);
        let (cfg, spec) = case.to_config();
        let footprints = app_footprints(&cfg, &spec);
        for a in concrete_accesses(&case, &cfg, &spec) {
            assert!(usize::from(a.gpu) < cfg.gpus);
            assert!(usize::from(a.asid) < spec.placements.len());
            assert!(a.vpn < footprints[usize::from(a.asid)]);
        }
    }
}
