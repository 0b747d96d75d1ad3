//! The uops.info-style result table (§V: results are published "both in
//! the form of a human-readable, interactive HTML table, and as a
//! machine-readable XML file" — we emit aligned text and JSON).

use crate::measure::{measure_instruction_on, InstMeasurement, InstSpec};
use nanobench_core::{Campaign, NbError, Session};
use nanobench_store::{ByteReader, ByteWriter, ResultStore, StoreKey};
use nanobench_uarch::port::MicroArch;
use serde::Serialize;

/// Version of [`TableRow`]'s persistent-store encoding
/// ([`TableRow::to_store_bytes`]). Bump whenever the encoding or the
/// measurement semantics behind the stored values change.
pub const TABLE_FORMAT_VERSION: u32 = 1;

/// One row of the instruction table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Variant name.
    pub name: String,
    /// Chain latency in cycles.
    pub latency: Option<f64>,
    /// Reciprocal throughput in cycles.
    pub throughput: f64,
    /// µops per instruction.
    pub uops: f64,
    /// Port usage string, e.g. `"1.00*p23"`.
    pub ports: String,
}

// Hand-written because the vendored serde shim has no derive macro; field
// order must match the struct declaration so JSON output stays stable.
impl Serialize for TableRow {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("name".to_owned(), self.name.to_value()),
            ("latency".to_owned(), self.latency.to_value()),
            ("throughput".to_owned(), self.throughput.to_value()),
            ("uops".to_owned(), self.uops.to_value()),
            ("ports".to_owned(), self.ports.to_value()),
        ])
    }
}

impl TableRow {
    /// Serializes the row for the persistent store (version
    /// [`TABLE_FORMAT_VERSION`]): length-prefixed strings and IEEE-754
    /// bits, all little-endian, bit-exact on round trip.
    pub fn to_store_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(&self.name);
        match self.latency {
            Some(l) => w.put_u8(1).put_f64(l),
            None => w.put_u8(0),
        };
        w.put_f64(self.throughput)
            .put_f64(self.uops)
            .put_str(&self.ports);
        w.into_bytes()
    }

    /// Decodes a row from its store encoding; `None` for any malformed
    /// input (the caller then re-measures).
    pub fn from_store_bytes(bytes: &[u8]) -> Option<TableRow> {
        let mut r = ByteReader::new(bytes);
        let name = r.take_str()?.to_string();
        let latency = match r.take_u8()? {
            0 => None,
            1 => Some(r.take_f64()?),
            _ => return None,
        };
        let throughput = r.take_f64()?;
        let uops = r.take_f64()?;
        let ports = r.take_str()?.to_string();
        r.finish(TableRow {
            name,
            latency,
            throughput,
            uops,
            ports,
        })
    }
}

impl From<InstMeasurement> for TableRow {
    fn from(m: InstMeasurement) -> TableRow {
        TableRow {
            ports: m.port_usage_string(),
            name: m.name,
            latency: m.latency,
            throughput: m.throughput,
            uops: m.uops,
        }
    }
}

fn alu_family() -> Vec<InstSpec> {
    let mut out = Vec::new();
    for mnem in ["add", "sub", "and", "or", "xor", "adc", "sbb"] {
        for (suffix, a, b, c, d) in [
            ("r64, r64", "rax", "rbx", "rcx", "rdx"),
            ("r32, r32", "eax", "ebx", "ecx", "edx"),
        ] {
            out.push(InstSpec::new(
                format!("{} ({})", mnem.to_uppercase(), suffix),
                Some(&format!("{mnem} {a}, {a}")),
                &format!("{mnem} {a}, {a}; {mnem} {b}, {b}; {mnem} {c}, {c}; {mnem} {d}, {d}"),
                4,
            ));
        }
        out.push(InstSpec::new(
            format!("{} (r64, imm8)", mnem.to_uppercase()),
            Some(&format!("{mnem} rax, 1")),
            &format!("{mnem} rax, 1; {mnem} rbx, 1; {mnem} rcx, 1; {mnem} rdx, 1"),
            4,
        ));
    }
    for mnem in ["inc", "dec", "neg", "not"] {
        out.push(InstSpec::new(
            format!("{} (r64)", mnem.to_uppercase()),
            Some(&format!("{mnem} rax")),
            &format!("{mnem} rax; {mnem} rbx; {mnem} rcx; {mnem} rdx"),
            4,
        ));
    }
    out
}

fn shift_bit_family() -> Vec<InstSpec> {
    let mut out = Vec::new();
    for mnem in ["shl", "shr", "sar", "rol", "ror"] {
        out.push(InstSpec::new(
            format!("{} (r64, imm8)", mnem.to_uppercase()),
            Some(&format!("{mnem} rax, 3")),
            &format!("{mnem} rax, 3; {mnem} rbx, 3; {mnem} rcx, 3; {mnem} rdx, 3"),
            4,
        ));
    }
    for mnem in ["popcnt", "lzcnt", "tzcnt", "bsf", "bsr"] {
        out.push(
            InstSpec::new(
                format!("{} (r64, r64)", mnem.to_uppercase()),
                Some(&format!("{mnem} rax, rax")),
                &format!("{mnem} rax, rax; {mnem} rbx, rbx; {mnem} rcx, rcx; {mnem} rdx, rdx"),
                4,
            )
            .with_init("mov rax, 0xF0; mov rbx, 0xF0; mov rcx, 0xF0; mov rdx, 0xF0"),
        );
    }
    out.push(InstSpec::new(
        "BSWAP (r64)",
        Some("bswap rax"),
        "bswap rax; bswap rbx; bswap rcx; bswap rdx",
        4,
    ));
    out.push(InstSpec::new(
        "IMUL (r64, r64)",
        Some("imul rax, rax"),
        "imul rax, rax; imul rbx, rbx; imul rcx, rcx; imul rdx, rdx",
        4,
    ));
    out.push(
        InstSpec::new("DIV (r64)", Some("div rbx"), "div rbx", 1)
            .with_init("mov rbx, 1; mov rdx, 0; mov rax, 100"),
    );
    out
}

fn mov_lea_family() -> Vec<InstSpec> {
    vec![
        InstSpec::new(
            "MOV (r64, r64)",
            Some("mov rax, rax"),
            "mov rax, rbx; mov rcx, rbx; mov rdx, rbx; mov rsi, rbx",
            4,
        ),
        InstSpec::new(
            "MOV (r64, imm32)",
            None,
            "mov rax, 1; mov rbx, 2; mov rcx, 3; mov rdx, 4",
            4,
        ),
        InstSpec::new(
            "MOV load (r64, m64)",
            Some("mov r14, [r14]"),
            "mov rax, [r14]; mov rbx, [r14+64]; mov rcx, [r14+128]; mov rdx, [r14+192]",
            4,
        )
        .with_init("mov [r14], r14"),
        InstSpec::new(
            "MOV store (m64, r64)",
            None,
            "mov [r14], rax; mov [r14+64], rbx; mov [r14+128], rcx; mov [r14+192], rdx",
            4,
        ),
        InstSpec::new(
            "LEA (r64, [r+r])",
            Some("lea rax, [rax+rax]"),
            "lea rax, [rbx+rbx]; lea rcx, [rbx+rbx]; lea rdx, [rbx+rbx]; lea rsi, [rbx+rbx]",
            4,
        ),
        InstSpec::new(
            "MOVZX (r64, r8)",
            Some("movzx rax, al"),
            "movzx rax, bl; movzx rcx, bl; movzx rdx, bl; movzx rsi, bl",
            4,
        ),
        InstSpec::new(
            "CMOVZ (r64, r64)",
            Some("cmovz rax, rax"),
            "cmovz rax, rbx; cmovz rcx, rbx; cmovz rdx, rbx; cmovz rsi, rbx",
            4,
        ),
        InstSpec::new(
            "XCHG (r64, r64)",
            Some("xchg rax, rax"),
            "xchg rax, rbx; xchg rcx, rdx; xchg rsi, rdi; xchg r8, r9",
            4,
        ),
        InstSpec::new("NOP", None, "nop; nop; nop; nop", 4),
    ]
}

/// `n` independent chains over xmm pairs (dest also reads, so distinct
/// destinations are required to avoid loop-carried dependencies).
fn sse_tp(mnem: &str, n: usize) -> String {
    (0..n)
        .map(|i| format!("{mnem} xmm{}, xmm{}", 2 * i, 2 * i + 1))
        .collect::<Vec<_>>()
        .join("; ")
}

fn sse_tp_imm(mnem: &str, n: usize) -> String {
    (0..n)
        .map(|i| format!("{mnem} xmm{}, xmm{}, 0", 2 * i, 2 * i + 1))
        .collect::<Vec<_>>()
        .join("; ")
}

fn sse_avx_family() -> Vec<InstSpec> {
    let mut out = Vec::new();
    for mnem in [
        "addps", "subps", "mulps", "addpd", "mulpd", "maxps", "minps",
    ] {
        out.push(InstSpec::new(
            format!("{} (xmm, xmm)", mnem.to_uppercase()),
            Some(&format!("{mnem} xmm0, xmm0")),
            &sse_tp(mnem, 8),
            8,
        ));
    }
    for mnem in ["pand", "por", "pxor", "paddd", "paddq", "psubd", "pcmpeqd"] {
        out.push(InstSpec::new(
            format!("{} (xmm, xmm)", mnem.to_uppercase()),
            Some(&format!("{mnem} xmm0, xmm0")),
            &sse_tp(mnem, 8),
            8,
        ));
    }
    for mnem in ["divps", "divpd", "sqrtps", "sqrtpd"] {
        out.push(InstSpec::new(
            format!("{} (xmm, xmm)", mnem.to_uppercase()),
            Some(&format!("{mnem} xmm0, xmm0")),
            &sse_tp(mnem, 4),
            4,
        ));
    }
    for mnem in [
        "pshufd",
        "shufps",
        "psadbw",
        "pmulld",
        "pmaddwd",
        "aesenc",
        "pclmulqdq",
    ] {
        let with_imm = matches!(mnem, "pshufd" | "shufps" | "pclmulqdq");
        let (chain, tp) = if with_imm {
            (format!("{mnem} xmm0, xmm0, 0"), sse_tp_imm(mnem, 8))
        } else {
            (format!("{mnem} xmm0, xmm0"), sse_tp(mnem, 8))
        };
        out.push(InstSpec::new(
            format!("{} (xmm, xmm)", mnem.to_uppercase()),
            Some(&chain),
            &tp,
            8,
        ));
    }
    for mnem in ["vaddps", "vmulps", "vfmadd231ps", "vpaddd", "vpxor"] {
        out.push(InstSpec::new(
            format!("{} (ymm, ymm, ymm)", mnem.to_uppercase()),
            Some(&format!("{mnem} ymm0, ymm0, ymm1")),
            &format!(
                "{mnem} ymm0, ymm1, ymm2; {mnem} ymm3, ymm4, ymm5; {mnem} ymm6, ymm7, ymm8; {mnem} ymm9, ymm10, ymm11"
            ),
            4,
        ));
    }
    out
}

fn privileged_family() -> Vec<InstSpec> {
    vec![
        InstSpec::new("RDMSR (APERF)", None, "rdmsr", 1).with_init("mov rcx, 0xE8; mov rdx, 0"),
        InstSpec::new("WRMSR (MISC_FEATURE_CONTROL)", None, "wrmsr", 1)
            .with_init("mov rcx, 0x1A4; mov rax, 0; mov rdx, 0"),
        InstSpec::new("CLI+STI", None, "cli; sti", 2),
        InstSpec::new("SWAPGS", None, "swapgs", 1),
        InstSpec::new("RDTSC", None, "rdtsc", 1),
        InstSpec::new("RDPMC (fixed 0)", None, "rdpmc", 1)
            .with_init("mov rcx, 0x40000000; mov rdx, 0"),
        InstSpec::new("CLFLUSH (m64)", None, "clflush [r14]", 1),
        InstSpec::new("PREFETCHT0 (m64)", None, "prefetcht0 [r14]", 1),
    ]
}

/// The full benchmark suite for case study I.
pub fn benchmark_suite() -> Vec<InstSpec> {
    let mut out = alu_family();
    out.extend(shift_bit_family());
    out.extend(mov_lea_family());
    out.extend(sse_avx_family());
    out.extend(privileged_family());
    out
}

/// Runs the whole suite on a microarchitecture, fanned out over a default
/// [`Campaign`] — one reusable session per worker instead of roughly 270
/// machine builds (two per variant).
///
/// # Errors
///
/// Propagates measurement errors.
pub fn run_suite(uarch: MicroArch) -> Result<Vec<TableRow>, NbError> {
    run_suite_with(&Campaign::kernel(uarch))
}

/// Runs the whole suite through a caller-configured campaign (worker
/// count, seed). Results are in suite order and bit-identical for any
/// worker count: variant *j* always measures on a session reseeded to
/// `base_seed ^ j`.
///
/// # Errors
///
/// Propagates measurement errors.
pub fn run_suite_with(campaign: &Campaign) -> Result<Vec<TableRow>, NbError> {
    let suite = benchmark_suite();
    campaign.run_map(&suite, |session, spec, _| {
        measure_instruction_on(session, spec).map(TableRow::from)
    })
}

/// Runs the suite through a campaign backed by a persistent store: each
/// variant is keyed by its [`InstSpec::fingerprint`], the campaign's
/// machine fingerprint, the variant's job seed and
/// [`TABLE_FORMAT_VERSION`]; variants whose identical measurement ran
/// before are answered from the store without simulating, and fresh
/// measurements are published for future runs. Output is bit-identical to
/// [`run_suite_with`] on the same campaign.
///
/// # Errors
///
/// Propagates measurement errors and store I/O failures.
pub fn run_suite_stored(
    campaign: &Campaign,
    store: &ResultStore,
) -> Result<Vec<TableRow>, NbError> {
    campaign.run_map(&benchmark_suite(), |session, spec, j| {
        stored_row(campaign, store, session, spec, j)
    })
}

/// Job `j` of [`run_suite_stored`]: the row from `store` if the identical
/// measurement ran before, else measured on `session` and published.
fn stored_row(
    campaign: &Campaign,
    store: &ResultStore,
    session: &mut Session,
    spec: &InstSpec,
    j: usize,
) -> Result<TableRow, NbError> {
    let key = StoreKey {
        spec: spec.fingerprint(),
        uarch: campaign.machine_fingerprint(),
        seed: campaign.seed() ^ j as u64,
        version: TABLE_FORMAT_VERSION,
    };
    store.get_or_compute(
        key,
        TableRow::from_store_bytes,
        TableRow::to_store_bytes,
        || measure_instruction_on(session, spec).map(TableRow::from),
    )
}

/// Renders rows as an aligned text table.
pub fn render_table(uarch: MicroArch, rows: &[TableRow]) -> String {
    let mut out = format!(
        "{:<28} {:>8} {:>8} {:>6}  {}\n",
        format!("Instruction ({})", uarch.name()),
        "Lat",
        "TP",
        "uops",
        "Ports"
    );
    out.push_str(&"-".repeat(76));
    out.push('\n');
    for r in rows {
        let lat = r
            .latency
            .map_or_else(|| "-".to_string(), |l| format!("{l:.2}"));
        out.push_str(&format!(
            "{:<28} {:>8} {:>8.2} {:>6.2}  {}\n",
            r.name, lat, r.throughput, r.uops, r.ports
        ));
    }
    out
}

/// Serializes rows as JSON (the machine-readable output of §V).
///
/// # Panics
///
/// Never panics: `TableRow` serialization is infallible.
pub fn to_json(rows: &[TableRow]) -> String {
    serde_json::to_string_pretty(rows).expect("TableRow serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_instruction;

    #[test]
    fn suite_is_substantial() {
        let suite = benchmark_suite();
        assert!(suite.len() >= 70, "got {}", suite.len());
        // Name uniqueness.
        let mut names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len(), "duplicate variant names");
    }

    #[test]
    fn every_suite_string_has_pinned_code_bytes() {
        // The e5 byte path encodes each variant's code and init assembly;
        // the x86 crate's byte golden must pin every one of them.
        let golden = include_str!("../../x86/tests/golden/codec_bytes.tsv");
        let pinned: Vec<&str> = golden
            .lines()
            .filter_map(|l| l.split_once('\t').map(|(asm, _)| asm))
            .collect();
        for spec in benchmark_suite() {
            let parts = [
                spec.latency_asm.as_deref().unwrap_or(""),
                &spec.latency_init,
                &spec.throughput_asm,
                &spec.throughput_init,
            ];
            for text in parts.into_iter().filter(|t| !t.trim().is_empty()) {
                assert!(
                    pinned.contains(&text),
                    "{}: `{text}` has no pinned bytes",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn rows_render_and_serialize() {
        let rows = vec![TableRow {
            name: "ADD (r64, r64)".to_string(),
            latency: Some(1.0),
            throughput: 0.25,
            uops: 1.0,
            ports: "1.00*p0156".to_string(),
        }];
        let table = render_table(MicroArch::Skylake, &rows);
        assert!(table.contains("ADD (r64, r64)"));
        assert!(table.contains("0.25"));
        let json = to_json(&rows);
        assert!(json.contains("\"latency\": 1.0"));
    }

    #[test]
    fn store_codec_round_trips_rows() {
        for latency in [Some(4.5), None, Some(-0.0)] {
            let row = TableRow {
                name: "MULPS (xmm, xmm)".to_string(),
                latency,
                throughput: 0.5,
                uops: 1.0,
                ports: "1.00*p01".to_string(),
            };
            let bytes = row.to_store_bytes();
            assert_eq!(TableRow::from_store_bytes(&bytes), Some(row));
            assert!(TableRow::from_store_bytes(&bytes[..bytes.len() - 1]).is_none());
            let mut extended = bytes;
            extended.push(0);
            assert!(TableRow::from_store_bytes(&extended).is_none());
        }
        assert!(TableRow::from_store_bytes(&[]).is_none());
        // Suite fingerprints must be unique, or store keys would collide.
        let suite = benchmark_suite();
        let mut fps: Vec<u64> = suite.iter().map(InstSpec::fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), suite.len());
    }

    #[test]
    fn stored_suite_matches_unstored_and_hits_on_rerun() {
        let path = std::env::temp_dir().join(format!("nbstore-table-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = ResultStore::open(&path).unwrap();
        let campaign = Campaign::kernel(MicroArch::Skylake);
        let cold = run_suite_with(&campaign).unwrap();
        let first = run_suite_stored(&campaign, &store).unwrap();
        assert_eq!(first, cold);
        let warm = run_suite_stored(&campaign, &store).unwrap();
        assert_eq!(warm, cold);
        let stats = store.stats();
        assert_eq!(stats.hits as usize, cold.len());
        assert_eq!(stats.inserts as usize, cold.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn warm_stored_suite_pass_rewinds_no_cache_set() {
        // Every job of a warm pass is a store hit, and a reset is only an
        // epoch bump, so the pass leaves every cache set untouched. The
        // closure returns the job's row and its worker's cumulative
        // rewind count.
        let path = std::env::temp_dir().join(format!("nbstore-rewind-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = ResultStore::open(&path).unwrap();
        let campaign = Campaign::kernel(MicroArch::Skylake).workers(1);
        let pass = || {
            campaign
                .run_map(&benchmark_suite(), |session, spec, j| {
                    let row = stored_row(&campaign, &store, session, spec, j)?;
                    Ok((row, session.machine().hierarchy().sets_reset()))
                })
                .unwrap()
        };
        let cold = pass();
        assert!(cold.last().unwrap().1 > 0, "measuring rewinds sets");
        let warm = pass();
        assert_eq!(store.stats().hits as usize, warm.len(), "all jobs hit");
        for ((warm_row, rewound), (cold_row, _)) in warm.iter().zip(&cold) {
            assert_eq!(warm_row, cold_row);
            assert_eq!(*rewound, 0, "{}: a store hit rewound sets", warm_row.name);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_few_suite_entries_measure_correctly() {
        // Full-suite runs live in the e5 bench binary; spot-check the
        // pipeline with three entries here.
        let suite = benchmark_suite();
        let spot: Vec<&InstSpec> = suite
            .iter()
            .filter(|s| {
                s.name == "XOR (r64, r64)" || s.name == "MULPS (xmm, xmm)" || s.name == "NOP"
            })
            .collect();
        assert_eq!(spot.len(), 3);
        for spec in spot {
            let m = measure_instruction(MicroArch::Skylake, spec).unwrap();
            match m.name.as_str() {
                "XOR (r64, r64)" => {
                    assert_eq!(m.latency, Some(1.0));
                    assert!((m.throughput - 0.25).abs() < 0.1);
                }
                "MULPS (xmm, xmm)" => {
                    assert_eq!(m.latency, Some(4.0));
                    assert!((m.throughput - 0.5).abs() < 0.1, "{}", m.throughput);
                }
                "NOP" => {
                    assert!((m.throughput - 0.25).abs() < 0.1, "{}", m.throughput);
                    assert!(m.ports.iter().all(|p| *p < 0.05), "NOP uses no port");
                }
                _ => unreachable!(),
            }
        }
    }
}
