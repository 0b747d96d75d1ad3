//! Golden bytes for the three result-store codecs.
//!
//! Store files outlive the code that wrote them: a record written by an
//! older build is answered warm only if today's encoder produces the very
//! same bytes and today's decoder accepts them. These pins hold each
//! codec's output for fixed values — negative zero, a missing latency, a
//! multi-class fit — to the bytes existing stores hold, so a change to the
//! shared byte codec cannot shift a byte without failing here.

use nanobench::cache::policy::PolicyKind;
use nanobench::cache_tools::infer::{fit_result_from_bytes, fit_result_to_bytes};
use nanobench::cache_tools::FitResult;
use nanobench::inst_tools::TableRow;
use nanobench::nb::BenchmarkResult;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("golden hex"))
        .collect()
}

#[test]
fn benchmark_result_bytes_are_pinned() {
    let result = BenchmarkResult::new(vec![
        ("Instructions retired".to_string(), 1.0),
        ("Core cycles".to_string(), -0.0),
        ("L1".to_string(), 0.1 + 0.2),
    ]);
    let golden = concat!(
        "0300000014000000496e737472756374696f6e73207265746972656400000000",
        "0000f03f0b000000436f7265206379636c65730000000000000080020000004c",
        "31343333333333d33f",
    );
    assert_eq!(hex(&result.to_store_bytes()), golden);
    let back = BenchmarkResult::from_store_bytes(&unhex(golden)).expect("decodes");
    assert_eq!(back, result);
    assert_eq!(back.entries()[1].1.to_bits(), (-0.0f64).to_bits());
}

#[test]
fn table_row_bytes_are_pinned() {
    let rows = [
        TableRow {
            name: "IMUL (r64, r64)".to_string(),
            latency: Some(3.0),
            throughput: 1.0,
            uops: 1.0,
            ports: "1.00*p1".to_string(),
        },
        TableRow {
            name: "NOP".to_string(),
            latency: None,
            throughput: -0.0,
            uops: 0.25,
            ports: String::new(),
        },
    ];
    let golden = [
        concat!(
            "0f000000494d554c20287236342c207236342901000000000000084000000000",
            "0000f03f000000000000f03f07000000312e30302a7031",
        ),
        "030000004e4f50000000000000000080000000000000d03f00000000",
    ];
    for (row, golden) in rows.iter().zip(golden) {
        assert_eq!(hex(&row.to_store_bytes()), golden, "{}", row.name);
        let back = TableRow::from_store_bytes(&unhex(golden)).expect("decodes");
        assert_eq!(&back, row);
        assert_eq!(back.throughput.to_bits(), row.throughput.to_bits());
    }
}

#[test]
fn fit_result_bytes_are_pinned() {
    let fit = FitResult {
        matching: vec![
            vec![
                PolicyKind::Lru,
                PolicyKind::parse("QLRU_H00_M1_R0_U1").expect("parses"),
            ],
            vec![PolicyKind::Plru],
        ],
        sequences_tested: 42,
    };
    let golden = concat!(
        "2a0000000200000002000000030000004c525511000000514c52555f4830305f",
        "4d315f52305f55310100000004000000504c5255",
    );
    assert_eq!(hex(&fit_result_to_bytes(&fit)), golden);
    let back = fit_result_from_bytes(&unhex(golden)).expect("decodes");
    assert_eq!(back.matching, fit.matching);
    assert_eq!(back.sequences_tested, fit.sequences_tested);
}
