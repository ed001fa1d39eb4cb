//! Golden bytes: every persisted and wire format the store writes, pinned
//! as hex. The constants were captured from the encoders as they stood
//! before the framing code was consolidated into one codec, so a pass
//! here proves that the WAL, a telemetry segment, every request and
//! response frame, and the snapshot base and segment files still come
//! out byte for byte the same.

// Test-only binary: helper fns outside #[test] may unwrap freely (the
// workspace unwrap_used deny targets library code).
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use yv_core::{IncrementalConfig, IncrementalResolver, Pipeline, PipelineConfig, PersonQuery};
use yv_obs::{ClosedBucket, HistogramSnapshot, Tier};
use yv_records::{
    DateParts, Dataset, Gender, GeoPoint, Place, PlaceType, Record, RecordBuilder, Source,
    SourceId,
};
use yv_store::{snapshot, BatchStatus, RequestFrame, ResponseFrame, TelemetryLog, Wal};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("yv-store-golden-{}", std::process::id()))
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn source() -> Source {
    Source::testimony(SourceId(0), "Sara", "Levi", "Roma")
}

fn record(book: u64, first: &str, last: &str) -> Record {
    RecordBuilder::new(book, SourceId(0))
        .first_name(first)
        .last_name(last)
        .father_name("Italo")
        .gender(Gender::Female)
        .birth(DateParts::full(3, 7, 1921))
        .place(
            PlaceType::Birth,
            Place::full("Torino", "Torino", "Piemonte", "Italy", GeoPoint::new(45.07, 7.69)),
        )
        .build()
}

fn small_record(book: u64) -> Record {
    RecordBuilder::new(book, SourceId(0)).first_name("Guido").last_name("Foa").build()
}

/// A fixed three-record resolver with a hand-written one-split model, so
/// the snapshot bytes depend on no training run.
fn tiny_resolver() -> IncrementalResolver {
    let mut ds = Dataset::new();
    ds.add_source(source());
    ds.add_record(record(1, "Sara", "Levi"));
    ds.add_record(record(2, "Sarah", "Levi"));
    ds.add_record(small_record(3));
    let model =
        yv_adt::from_text("yv-adt v1\nroot 0.25\nsplitter root 3 0.5 0.75 -0.5\n").unwrap();
    IncrementalResolver::bootstrap(
        ds,
        Pipeline::with_model(model),
        PipelineConfig::default(),
        IncrementalConfig::default(),
    )
}

const WAL: &str = concat!(
    "595657414c000000020000000200000000000000001d00000000000000000400000053617261040000004c65",
    "766904000000526f6d61dda7c6ff168ee4a40101000000000000003200000007000000000000000000000001",
    "00000005000000477569646f0100000003000000466f610000000000000000000000000000704afb176148af",
    "a3",
);

const TELEMETRY: &str = concat!(
    "595654454c454d3101000000013d000000050000007175657279001100000000000000020302000000000000",
    "0009010000000000000028a000000000000030750000000000008813000000000000a727f7f5284162ca",
);

const REQUESTS: [&str; 11] = [
    "011b0000000105000000477569646f00295c8fc2f528ec3f000000000000d03f5153835e3fb4109e",
    "021d0000000b00000064656c6c6120746f727265010500000001000000000000e03fac4557424b079e53",
    concat!(
        "03320000006300000000000000000000000100000005000000477569646f0100000003000000466f61000000",
        "0000000000000000000000c3b28fd8547a5c00",
    ),
    concat!(
        "0b68000000020000000100000000000000000000000100000005000000477569646f0100000003000000466f",
        "6100000000000000000000000000000200000000000000000000000100000005000000477569646f01000000",
        "03000000466f6100000000000000000000000000006bf4e760c5c14693",
    ),
    "040000000013b101864cb963af",
    "050000000060af01864cb863af",
    "06050000000104000000ac6c41298b01f491",
    "0709000000d1240eb10000000001692cd25db2a87714",
    "08110000000500000071756572790105000000010100da5e4c46c19b1544",
    "0900000000c4c301864cc463af",
    "0a00000000ddc801864cc763af",
];

const RESPONSES: [&str; 2] = [
    concat!(
        "20210000001d0000004f4b20310a48495420736565643d3120656e746974793d312c320a2e0ad0d64aa28ac9",
        "39e6",
    ),
    "211e00000002000000010300000000100000004144443a2062616420626f6f6b20696480daaaca0830a275",
];

const SNAPSHOT_BASE: &str = concat!(
    "595653544f52450002000000bc000000000000000100000000000000000400000053617261040000004c6576",
    "6904000000526f6d6103000000000000003200000079762d6164742076310a726f6f7420302e32350a73706c",
    "697474657220726f6f74203320302e3520302e3735202d302e350a0500000000000000000000000000084000",
    "000000000000400001613255302aa9333f019a9999999999a93f010000000000000000000a00000000000000",
    "3000000000000000000000000000f03f02000000000000009a9999999999a93ffbfe0bdd2605c1ab",
);

const SNAPSHOT_SEGMENT: &str = concat!(
    "5956535453454700020000004701000000000000000000000300000000000000010000000000000000000000",
    "01000000040000005361726101000000040000004c6576690001050000004974616c6f000000010101030107",
    "018107000000010106000000546f72696e6f0106000000546f72696e6f01080000005069656d6f6e74650105",
    "0000004974616c7901295c8fc2f5884640c3f5285c8fc21e4000000001000000020000000000000000000000",
    "0100000005000000536172616801000000040000004c6576690001050000004974616c6f0000000101010301",
    "07018107000000010106000000546f72696e6f0106000000546f72696e6f01080000005069656d6f6e746501",
    "050000004974616c7901295c8fc2f5884640c3f5285c8fc21e40000000020000000300000000000000000000",
    "000100000005000000477569646f0100000003000000466f6100000000000000000000000000000c92ab7bb9",
    "f7bdb6",
);

#[test]
fn wal_file_bytes_are_pinned() {
    let dir = fresh_dir("wal");
    let path = dir.join("wal.0.yvl");
    let mut wal = Wal::create(&path).unwrap();
    wal.append_source(0, &source()).unwrap();
    wal.append_record(1, &small_record(7)).unwrap();
    drop(wal);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(hex(&bytes), WAL);
}

#[test]
fn telemetry_segment_bytes_are_pinned() {
    let dir = fresh_dir("telemetry");
    let mut delta = HistogramSnapshot::default();
    delta.counts[3] = 2;
    delta.counts[9] = 1;
    delta.sum_ns = 41_000;
    delta.max_ns = 30_000;
    delta.min_ns = 5_000;
    let bucket = ClosedBucket { tier: Tier::Seconds, epoch: 17, delta };
    let mut log = TelemetryLog::open(&dir, yv_store::DEFAULT_TELEMETRY_CAP_BYTES).unwrap();
    log.append("query", &bucket).unwrap();
    drop(log);
    let bytes = std::fs::read(dir.join(yv_store::telemetry::SEGMENT)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(hex(&bytes), TELEMETRY);
}

#[test]
fn request_frame_bytes_are_pinned() {
    let frames = [
        RequestFrame::Query(PersonQuery {
            first_name: Some("Guido".to_owned()),
            last_name: None,
            name_similarity: 0.88,
            certainty: 0.25,
        }),
        RequestFrame::Resolve { name: "della torre".to_owned(), k: Some(5), min: Some(0.5) },
        RequestFrame::Add(Box::new(small_record(99))),
        RequestFrame::BatchAdd(vec![small_record(1), small_record(2)]),
        RequestFrame::Stats,
        RequestFrame::Metrics,
        RequestFrame::Top { k: Some(4) },
        RequestFrame::Trace { id: 0xb10e_24d1, json: true },
        RequestFrame::History {
            metric: "query".to_owned(),
            window: Some(5),
            tier: Some(Tier::Minutes),
            json: false,
        },
        RequestFrame::Snapshot,
        RequestFrame::Shutdown,
    ];
    for (frame, expected) in frames.iter().zip(REQUESTS) {
        assert_eq!(hex(&frame.encode().unwrap()), expected, "{frame:?}");
    }
}

#[test]
fn response_frame_bytes_are_pinned() {
    let frames = [
        ResponseFrame::Block("OK 1\nHIT seed=1 entity=1,2\n.\n".to_owned()),
        ResponseFrame::Batch(vec![
            BatchStatus::Ok { matches: 3 },
            BatchStatus::Err("ADD: bad book id".to_owned()),
        ]),
    ];
    for (frame, expected) in frames.iter().zip(RESPONSES) {
        assert_eq!(hex(&frame.encode().unwrap()), expected, "{frame:?}");
    }
}

#[test]
fn snapshot_file_bytes_are_pinned() {
    let resolver = tiny_resolver();
    assert_eq!(hex(&snapshot::base_to_bytes(&resolver).unwrap()), SNAPSHOT_BASE);
    let ds = resolver.dataset();
    let entries: Vec<_> = ds.record_ids().map(|rid| (rid, ds.record(rid))).collect();
    assert_eq!(hex(&snapshot::segment_to_bytes(0, &entries).unwrap()), SNAPSHOT_SEGMENT);
}
