//! Format suite for the wtrace warp-instruction trace codec
//! (`duplo_sim::wtrace`): randomized encode→decode→encode round-trips,
//! strict-decoder rejection of corrupt/truncated/skewed documents (with
//! positioned errors, never panics), and run-cache key sensitivity to
//! trace content.

use duplo_isa::{ArchReg, CtaTrace, Op, Space, WarpTrace, WorkspaceDesc};
use duplo_sim::json::{Json, parse};
use duplo_sim::wtrace::{KernelRecord, TraceKernel, WTRACE_VERSION, decode, encode, load_file};
use duplo_sim::{GpuConfig, cache};
use duplo_testkit::{Rng, prop};

// ---------------------------------------------------------------------------
// Randomized record generation
//
// Decoded CTAs must pass `duplo_isa::validate_cta`, so generation respects
// the trace invariants: registers are written before read, accesses move
// at least one byte, every warp ends with a single trailing Exit, and all
// warps of a CTA execute the same number of barriers.
// ---------------------------------------------------------------------------

fn rand_space(rng: &mut Rng) -> Space {
    if rng.gen_bool(0.5) {
        Space::Global
    } else {
        Space::Shared
    }
}

fn rand_written_reg(rng: &mut Rng, written: &[u16]) -> ArchReg {
    ArchReg(written[rng.gen_index(written.len())])
}

fn rand_warp(rng: &mut Rng, bars: usize) -> WarpTrace {
    let mut ops = Vec::new();
    let mut written: Vec<u16> = Vec::new();
    let n_ops = rng.gen_range(1usize..12);
    for _ in 0..n_ops {
        // Writer ops are always legal; reader ops need a written register.
        let choice = if written.is_empty() {
            rng.gen_index(3)
        } else {
            3 + rng.gen_index(3)
        };
        let op = match choice {
            0 | 3 => {
                let dst = rng.gen_range(0u16..16);
                written.push(dst);
                Op::WmmaLoad {
                    dst: ArchReg(dst),
                    addr: rng.next_u64() >> 16,
                    rows: rng.gen_range(1u64..17) as u8,
                    seg_bytes: rng.gen_range(1u64..129) as u16,
                    row_stride: rng.gen_range(1u64..4096),
                    space: rand_space(rng),
                }
            }
            1 | 4 if choice == 4 && !written.is_empty() => {
                // Readers: MMA or store from an already-written register.
                if rng.gen_bool(0.5) {
                    let d = rng.gen_range(0u16..16);
                    let mma = Op::WmmaMma {
                        d: ArchReg(d),
                        a: rand_written_reg(rng, &written),
                        b: rand_written_reg(rng, &written),
                        c: rand_written_reg(rng, &written),
                    };
                    written.push(d);
                    mma
                } else {
                    Op::St {
                        src: rand_written_reg(rng, &written),
                        addr: rng.next_u64() >> 16,
                        bytes: rng.gen_range(1u64..257) as u32,
                        space: rand_space(rng),
                    }
                }
            }
            1 => {
                let dst = rng.gen_range(0u16..16);
                written.push(dst);
                Op::Ld {
                    dst: ArchReg(dst),
                    addr: rng.next_u64() >> 16,
                    bytes: rng.gen_range(1u64..257) as u32,
                    space: rand_space(rng),
                }
            }
            _ => {
                let dst = if rng.gen_bool(0.5) {
                    let d = rng.gen_range(0u16..16);
                    written.push(d);
                    Some(ArchReg(d))
                } else {
                    None
                };
                Op::Alu {
                    dst,
                    latency: rng.gen_range(1u64..9) as u8,
                }
            }
        };
        ops.push(op);
    }
    // Insert the CTA's common barrier count at random positions.
    for _ in 0..bars {
        let at = rng.gen_index(ops.len() + 1);
        ops.insert(at, Op::Bar);
    }
    ops.push(Op::Exit);
    WarpTrace { ops }
}

fn rand_workspace(rng: &mut Rng) -> Option<WorkspaceDesc> {
    if rng.gen_bool(0.5) {
        return None;
    }
    Some(WorkspaceDesc {
        base: rng.next_u64() >> 32,
        bytes: rng.gen_range(1u64..1 << 20),
        elem_bytes: [1u32, 2, 4][rng.gen_index(3)],
        row_stride_elems: rng.gen_range(16u64..512) as u32,
        input_w: rng.gen_range(1u64..64) as u32,
        channels: rng.gen_range(1u64..64) as u32,
        fw: rng.gen_range(1u64..8) as u32,
        fh: rng.gen_range(1u64..8) as u32,
        out_w: rng.gen_range(1u64..64) as u32,
        out_h: rng.gen_range(1u64..64) as u32,
        stride: rng.gen_range(1u64..4) as u32,
        pad: rng.gen_range(0u64..4) as u32,
        batch: rng.gen_range(1u64..8) as u32,
    })
}

fn rand_record(rng: &mut Rng) -> KernelRecord {
    let name_len = rng.gen_range(1usize..12);
    let name: String = (0..name_len)
        .map(|_| {
            let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789_.x";
            alphabet[rng.gen_index(alphabet.len())] as char
        })
        .collect();
    let num_ctas = rng.gen_range(1usize..32);
    let n_recorded = rng.gen_range(1usize..=num_ctas.min(4));
    let mut indices: Vec<usize> = (0..num_ctas).collect();
    rng.shuffle(&mut indices);
    indices.truncate(n_recorded);
    indices.sort_unstable();
    let ctas = indices
        .into_iter()
        .map(|idx| {
            let bars = rng.gen_index(3);
            let n_warps = rng.gen_range(1usize..5);
            let warps = (0..n_warps).map(|_| rand_warp(rng, bars)).collect();
            (idx, CtaTrace { warps })
        })
        .collect();
    KernelRecord {
        name,
        num_ctas,
        shared_mem_per_cta: rng.gen_range(0u64..96 << 10) as u32,
        regs_per_warp: rng.gen_range(1u64..256) as u32,
        workspace: rand_workspace(rng),
        ctas,
    }
}

// ---------------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------------

#[test]
fn encode_decode_encode_round_trips_byte_identically() {
    prop::check(
        "wtrace round-trip",
        48,
        |rng| {
            let n = rng.gen_range(1usize..4);
            Some((0..n).map(|_| rand_record(rng)).collect::<Vec<_>>())
        },
        |records| {
            let doc = encode(records);
            let text = doc.to_pretty();
            let reparsed = parse(&text).map_err(|e| format!("pretty form must parse: {e}"))?;
            let decoded = decode(&reparsed).map_err(|e| format!("decode failed: {e}"))?;
            if &decoded != records {
                return Err("decoded records differ from the originals".to_string());
            }
            let round = encode(&decoded).to_pretty();
            if round != text {
                return Err("re-encoded document is not byte-identical".to_string());
            }
            Ok(())
        },
    );
}

#[test]
fn truncated_documents_error_and_never_panic() {
    prop::check(
        "wtrace truncation",
        48,
        |rng| {
            let text = encode(&[rand_record(rng)]).to_pretty();
            let cut = rng.gen_index(text.len());
            // Cut on a char boundary (the encoder emits only ASCII, but
            // don't rely on it).
            let cut = (0..=cut).rev().find(|&c| text.is_char_boundary(c))?;
            Some(text[..cut].to_string())
        },
        |truncated| {
            match parse(truncated) {
                Err(_) => Ok(()), // positioned syntax error: fine
                Ok(doc) => match decode(&doc) {
                    // A cut exactly at the end can leave a valid document.
                    Ok(_) if truncated.trim_end().ends_with('}') => Ok(()),
                    Ok(_) => Err("decoder accepted a truncated document".to_string()),
                    Err(_) => Ok(()),
                },
            }
        },
    );
}

/// Rebuilds the document with `f` applied to the JSON tree, asserting the
/// decoder rejects it with an error whose path contains `want_path` and
/// whose message contains `want_msg`.
fn assert_rejects(
    records: &[KernelRecord],
    want_path: &str,
    want_msg: &str,
    f: impl Fn(&mut Json),
) {
    let mut doc = encode(records);
    f(&mut doc);
    let err = decode(&doc).expect_err("corrupted document must be rejected");
    assert!(
        err.path.contains(want_path),
        "error path {:?} should contain {want_path:?} ({err})",
        err.path
    );
    assert!(
        err.msg.contains(want_msg),
        "error message {:?} should contain {want_msg:?}",
        err.msg
    );
}

/// Navigates to the first kernel object's field.
fn kernel_field<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(top) = doc else {
        panic!("top is an object")
    };
    let kernels = &mut top.iter_mut().find(|(k, _)| k == "kernels").unwrap().1;
    let Json::Arr(kernels) = kernels else {
        panic!()
    };
    let Json::Obj(kernel) = &mut kernels[0] else {
        panic!()
    };
    &mut kernel.iter_mut().find(|(k, _)| k == key).unwrap().1
}

fn sample_records() -> Vec<KernelRecord> {
    let mut rng = Rng::seed_from_u64(7);
    vec![rand_record(&mut rng)]
}

#[test]
fn version_skew_is_rejected() {
    assert_rejects(&sample_records(), "wtrace_version", "unsupported", |doc| {
        let Json::Obj(top) = doc else { panic!() };
        top.iter_mut()
            .find(|(k, _)| k == "wtrace_version")
            .unwrap()
            .1 = Json::from(WTRACE_VERSION + 3);
    });
}

#[test]
fn duplicate_cta_and_duplicate_warp_are_rejected() {
    let mut rng = Rng::seed_from_u64(11);
    let records = vec![rand_record(&mut rng)];
    assert_rejects(&records, "ctas[1].cta", "duplicate CTA index", |doc| {
        let ctas = kernel_field(doc, "ctas");
        let Json::Arr(ctas) = ctas else { panic!() };
        let dup = ctas[0].clone();
        ctas.insert(1, dup);
    });
    assert_rejects(&records, "warps[1].warp", "duplicate warp index", |doc| {
        let ctas = kernel_field(doc, "ctas");
        let Json::Arr(ctas) = ctas else { panic!() };
        let Json::Obj(cta) = &mut ctas[0] else {
            panic!()
        };
        let warps = &mut cta.iter_mut().find(|(k, _)| k == "warps").unwrap().1;
        let Json::Arr(warps) = warps else { panic!() };
        let dup = warps[0].clone();
        warps.insert(1, dup);
    });
}

#[test]
fn unknown_fields_and_out_of_range_values_are_rejected() {
    let records = sample_records();
    assert_rejects(&records, "grid.surprise", "unexpected field", |doc| {
        let grid = kernel_field(doc, "grid");
        let Json::Obj(grid) = grid else { panic!() };
        grid.push(("surprise".to_string(), Json::from(1u64)));
    });
    assert_rejects(&records, "grid", "missing field", |doc| {
        let grid = kernel_field(doc, "grid");
        let Json::Obj(grid) = grid else { panic!() };
        grid.retain(|(k, _)| k != "num_ctas");
    });
    assert_rejects(&records, "grid.regs_per_warp", "out of range", |doc| {
        let grid = kernel_field(doc, "grid");
        let Json::Obj(grid) = grid else { panic!() };
        grid.iter_mut()
            .find(|(k, _)| k == "regs_per_warp")
            .unwrap()
            .1 = Json::from(u64::from(u32::MAX) + 1);
    });
    assert_rejects(&records, "name", "expected a string", |doc| {
        *kernel_field(doc, "name") = Json::from(42u64);
    });
    assert_rejects(&records, "cta", "outside the declared grid", |doc| {
        let num_ctas = {
            let grid = kernel_field(doc, "grid");
            grid.get("num_ctas").and_then(Json::as_u64).unwrap()
        };
        let ctas = kernel_field(doc, "ctas");
        let Json::Arr(ctas) = ctas else { panic!() };
        let Json::Obj(cta) = &mut ctas[0] else {
            panic!()
        };
        cta.iter_mut().find(|(k, _)| k == "cta").unwrap().1 = Json::from(num_ctas);
    });
}

#[test]
fn semantically_invalid_traces_are_rejected_via_validate_cta() {
    // A warp whose only op reads an unwritten register: decode must
    // surface the `validate_cta` error with the CTA's position.
    let doc = Json::obj()
        .field("wtrace_version", WTRACE_VERSION)
        .field(
            "kernels",
            Json::Arr(vec![
                Json::obj()
                    .field("name", "bad")
                    .field(
                        "grid",
                        Json::obj()
                            .field("num_ctas", 1u64)
                            .field("shared_mem_per_cta", 0u64)
                            .field("regs_per_warp", 8u64)
                            .build(),
                    )
                    .field("workspace", Json::Null)
                    .field(
                        "ctas",
                        Json::Arr(vec![
                            Json::obj()
                                .field("cta", 0u64)
                                .field(
                                    "warps",
                                    Json::Arr(vec![
                                        Json::obj()
                                            .field("warp", 0u64)
                                            .field(
                                                "ops",
                                                Json::Arr(vec![
                                                    Json::obj()
                                                        .field("op", "st")
                                                        .field("src", 3u64)
                                                        .field("addr", 64u64)
                                                        .field("bytes", 4u64)
                                                        .field("space", "global")
                                                        .build(),
                                                    Json::obj().field("op", "exit").build(),
                                                ]),
                                            )
                                            .build(),
                                    ]),
                                )
                                .build(),
                        ]),
                    )
                    .build(),
            ]),
        )
        .build();
    let err = decode(&doc).expect_err("read-before-write must be rejected");
    assert!(err.path.contains("ctas[0]"), "{err}");
    assert!(err.msg.contains("invalid trace"), "{err}");
}

// ---------------------------------------------------------------------------
// Cache-key sensitivity
// ---------------------------------------------------------------------------

/// Flips one operand address in the record's first memory op.
fn perturb_one_address(rec: &mut KernelRecord) {
    let (_, cta) = &mut rec.ctas[0];
    for op in &mut cta.warps[0].ops {
        match op {
            Op::WmmaLoad { addr, .. } | Op::Ld { addr, .. } | Op::St { addr, .. } => {
                *addr ^= 0x40;
                return;
            }
            _ => {}
        }
    }
    panic!("record has no memory op to perturb");
}

#[test]
fn one_address_flip_changes_digest_and_cache_key() {
    let mut rng = Rng::seed_from_u64(23);
    let rec = loop {
        let r = rand_record(&mut rng);
        let has_mem = r.ctas[0].1.warps[0]
            .ops
            .iter()
            .any(|o| matches!(o, Op::WmmaLoad { .. } | Op::Ld { .. } | Op::St { .. }));
        if has_mem {
            break r;
        }
    };
    let mut flipped = rec.clone();
    perturb_one_address(&mut flipped);
    let cfg = GpuConfig::titan_v();
    let a = TraceKernel::new(rec);
    let b = TraceKernel::new(flipped);
    assert_ne!(
        a.record().content_digest(),
        b.record().content_digest(),
        "one operand address must change the content digest"
    );
    assert_ne!(
        cache::run_key(&cfg, &a),
        cache::run_key(&cfg, &b),
        "one operand address must change the run-cache key"
    );
    // The match key deliberately ignores instruction bytes: both traces
    // describe the same kernel descriptor and CTA set.
    assert_eq!(a.record().match_key(), b.record().match_key());
}

#[test]
fn identical_traces_from_different_paths_share_one_cache_key() {
    let mut rng = Rng::seed_from_u64(29);
    let records = vec![rand_record(&mut rng)];
    let dir = std::env::temp_dir().join(format!("duplo-wtrace-paths-{}", std::process::id()));
    let path_a = dir.join("a/first.wtrace.json");
    let path_b = dir.join("b/second.wtrace.json");
    for path in [&path_a, &path_b] {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, encode(&records).to_pretty()).unwrap();
    }
    let from_a = load_file(&path_a).unwrap();
    let from_b = load_file(&path_b).unwrap();
    let cfg = GpuConfig::titan_v();
    assert_eq!(from_a.len(), 1);
    assert_eq!(from_a[0].record(), from_b[0].record());
    assert_eq!(
        cache::run_key(&cfg, &from_a[0]),
        cache::run_key(&cfg, &from_b[0]),
        "the cache key is content-addressed, not path-addressed"
    );
    std::fs::remove_dir_all(&dir).ok();
}
