//! Wire-codec determinism over real pipeline artifacts: encode →
//! decode → re-encode must be bit-identical, and two independent cold
//! builds of the same cell must serialize to the same bytes — that
//! byte-stability is what makes the content-addressed store's "both
//! racers write identical bytes" publish contract true.
//!
//! Takes the same file-wide lock as the other pipeline tests: the stage
//! caches it clears between builds are process-global.

use bitspec::{build, simulate, stages, wire, BuildConfig, Workload};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn workload(tag: &str) -> Workload {
    let src = format!(
        "global u8 data[8]; // wire {tag}
         void main() {{
            u32 acc = 0;
            for (u32 i = 0; i < 8; i++) {{
               u32 v = data[i];
               acc = (acc << 1) ^ (v * 3);
            }}
            out(acc & 0xffff);
            out(acc >> 7);
         }}"
    );
    Workload::from_source(format!("wire_{tag}"), src)
        .with_input("data", vec![9, 1, 250, 3, 77, 0, 128, 64])
        .with_train_input("data", vec![2, 4, 6, 8, 10, 12, 14, 16])
}

#[test]
fn cell_roundtrip_is_bit_identical() {
    let _g = serial();
    let w = workload("cell");
    for cfg in [
        BuildConfig::bitspec(),
        BuildConfig::baseline(),
        BuildConfig {
            empirical_gate: false,
            ..BuildConfig::bitspec()
        },
    ] {
        let c = build(&w, &cfg).unwrap();
        let r = simulate(&c, &w).unwrap();
        let bytes = wire::encode_cell(&c, &r);
        let (c2, r2) = wire::decode_cell(&bytes).unwrap();
        // Semantics survive the trip…
        assert_eq!(r2.outputs, r.outputs);
        assert_eq!(r2.cycles, r.cycles);
        assert_eq!(r2.total_energy(), r.total_energy());
        assert_eq!(c2.profile, c.profile);
        assert_eq!(c2.used_squeezed, c.used_squeezed);
        assert_eq!(
            backend::program_fingerprint(&c2.program),
            backend::program_fingerprint(&c.program)
        );
        // …and so do the exact bytes: decode(encode(x)) re-encodes to
        // the same serialization, with nothing dropped or reordered.
        assert_eq!(wire::encode_cell(&c2, &r2), bytes, "cfg {cfg:?}");
    }
}

#[test]
fn independent_cold_builds_serialize_identically() {
    let _g = serial();
    // Two fully independent builds of the same (workload, config) cell
    // must produce byte-identical artifacts. `PassTrace.wall_ns` is the
    // one nondeterministic field, so compare the sim+program layers the
    // store actually keys on, plus the full sim result encoding.
    let w = workload("twice");
    let cfg = BuildConfig::bitspec();
    stages::clear();
    let a = build(&w, &cfg).unwrap();
    let ra = simulate(&a, &w).unwrap();
    stages::clear();
    let b = build(&w, &cfg).unwrap();
    let rb = simulate(&b, &w).unwrap();
    assert_eq!(
        backend::program_fingerprint(&a.program),
        backend::program_fingerprint(&b.program)
    );
    assert_eq!(
        wire::encode_sim_result(&ra),
        wire::encode_sim_result(&rb),
        "independent builds must serialize the sim result identically"
    );
    assert_eq!(a.profile, b.profile);
    assert_eq!(ra.outputs, rb.outputs);
}

#[test]
fn stage_payloads_roundtrip() {
    let _g = serial();
    let w = workload("stage");
    stages::clear();
    let c = build(&w, &BuildConfig::bitspec()).unwrap();
    // The profile stage payload: data → bytes → data must be lossless.
    let pd = stages::ProfileData {
        profile: c.profile.clone(),
        dyn_insts: c.profile_dyn_insts,
        traces: Vec::new(),
    };
    let pbytes = wire::encode_profile_data(&pd);
    let p2 = wire::decode_profile_data(&pbytes).unwrap();
    assert_eq!(p2.profile, c.profile);
    assert_eq!(p2.dyn_insts, c.profile_dyn_insts);
    assert_eq!(wire::encode_profile_data(&p2), pbytes);
    // Truncation anywhere inside the payload must error, not panic or
    // silently succeed.
    for cut in [0, 1, pbytes.len() / 2, pbytes.len() - 1] {
        assert!(
            wire::decode_profile_data(&pbytes[..cut]).is_err(),
            "truncation at {cut} must be a decode error"
        );
    }
    // Trailing garbage is rejected too (full-consumption check).
    let mut extended = pbytes.clone();
    extended.push(0);
    assert!(wire::decode_profile_data(&extended).is_err());
}

#[test]
fn vec_length_past_the_remaining_bytes_is_rejected() {
    // A sim result opens with its output list: claim 9 outputs with only
    // 8 one-byte elements left. The claim fits the whole payload (9 bytes)
    // but not the bytes still unread, so the length check itself rejects
    // it before any element is decoded or any space is reserved.
    let mut bytes = vec![9u8];
    bytes.extend_from_slice(&[1; 8]);
    let err = wire::decode_sim_result(&bytes).expect_err("overlong vec must not decode");
    assert!(err.0.contains("remaining"), "unexpected error: {err}");
    // A SIR stage opens with the module name: claim u64::MAX bytes of it.
    // The length must be checked without overflowing `pos + len`.
    let mut huge = vec![0xff; 9];
    huge.push(0x01);
    assert!(wire::decode_sir_stage(&huge).is_err());
}
