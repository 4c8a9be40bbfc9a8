//! Versioned warp-instruction trace format with record/replay sessions.
//!
//! ROADMAP item 2: a trace-driven workload frontend. Any kernel the
//! simulator runs — built-in generator or not — can be serialized to a
//! JSON *wtrace* document and replayed later through a [`TraceKernel`],
//! which implements the same [`Kernel`] interface as the generators, so a
//! replayed trace flows through [`crate::GpuSim::run`], the runner pool,
//! the run cache, and cycle tracing unchanged.
//!
//! # Document layout (version [`WTRACE_VERSION`])
//!
//! ```json
//! {
//!   "wtrace_version": 1,
//!   "kernels": [
//!     {
//!       "name": "conv_gemm_tc_...",
//!       "grid": {"num_ctas": 392, "shared_mem_per_cta": 32768, "regs_per_warp": 16},
//!       "workspace": { ... } | null,
//!       "ctas": [
//!         {"cta": 0, "warps": [
//!           {"warp": 0, "ops": [
//!             {"op": "wmma.load", "dst": 0, "addr": 268435456, "rows": 16,
//!              "seg_bytes": 32, "row_stride": 1152, "space": "global"},
//!             {"op": "wmma.mma", "d": 8, "a": 0, "b": 1, "c": 8},
//!             {"op": "exit"}
//!           ]}
//!         ]}
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! The header of each kernel entry carries the kernel descriptor
//! (name, grid/CTA geometry, occupancy footprints, workspace metadata);
//! the body carries per-warp instruction streams with opcodes, operand
//! addresses, and dependency tags (fragment-register numbers). A recorded
//! document stores exactly the CTAs the recording configuration simulated
//! (round-robin shares, sampling prefix), so huge grids stay compact; the
//! declared `num_ctas` keeps the replayed sampling math identical.
//!
//! # Versioning rules
//!
//! The decoder is strict: `wtrace_version` must equal [`WTRACE_VERSION`]
//! exactly (no forward or backward reading), every field must be present
//! with the right type and range, unknown fields and opcodes are rejected,
//! warp lists must be dense and duplicate-free, and decoded CTAs must pass
//! [`duplo_isa::validate_cta`]. Any change to the document shape bumps
//! [`WTRACE_VERSION`]. Errors carry a precise position path
//! (`kernels[2].ctas[0].warps[1].ops[17].addr`) and never panic.
//!
//! # Record/replay sessions
//!
//! A [`WtraceSession`] rides on [`crate::RunOptions::wtrace`], so it
//! applies to exactly the runs that carry it. A recording session
//! ([`WtraceSession::record`]) captures every kernel those runs reach
//! [`crate::GpuSim::run`] with (deduplicated by content);
//! [`WtraceSession::records`] returns them in a deterministic order, so
//! recorded documents are byte-identical at any thread count. A replay
//! session ([`WtraceSession::replay`]) swaps each kernel the experiment
//! generates for the matching [`TraceKernel`] before simulation, so the
//! decoded trace — not the generator — is what actually drives the SM
//! model. The cache key of a replayed kernel is salted with the trace
//! content digest ([`Kernel::content_digest`]), so replay runs never alias
//! generator runs in the run cache, while identical traces loaded from
//! different file paths share one entry.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use duplo_isa::{ArchReg, CtaTrace, Kernel, Op, Space, WarpTrace, WorkspaceDesc, validate_cta};

use crate::digest;
use crate::gpu::{GpuConfig, sm_ctas};
use crate::json::{Json, parse};

/// Version of the wtrace document layout; the decoder requires an exact
/// match (see the module docs for the versioning rules).
pub const WTRACE_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One kernel's serialized form: the descriptor header plus the recorded
/// CTA traces (a sparse, strictly ascending subset of the grid).
#[derive(Clone, PartialEq, Debug)]
pub struct KernelRecord {
    /// Kernel name ([`Kernel::name`]).
    pub name: String,
    /// Total CTAs in the grid ([`Kernel::num_ctas`]) — also the replayed
    /// sampling denominator, so it may exceed `ctas.len()`.
    pub num_ctas: usize,
    /// Shared-memory footprint per CTA in bytes.
    pub shared_mem_per_cta: u32,
    /// Architectural fragment registers per warp.
    pub regs_per_warp: u32,
    /// Workspace metadata for the Duplo detection unit, if any.
    pub workspace: Option<WorkspaceDesc>,
    /// Recorded `(cta_index, trace)` pairs, strictly ascending by index.
    pub ctas: Vec<(usize, CtaTrace)>,
}

impl KernelRecord {
    /// Captures `kernel` by materializing the CTAs listed in `indices`
    /// (which must be sorted ascending and in range).
    pub fn capture(kernel: &dyn Kernel, indices: &[usize]) -> KernelRecord {
        KernelRecord {
            name: kernel.name().to_string(),
            num_ctas: kernel.num_ctas(),
            shared_mem_per_cta: kernel.shared_mem_per_cta(),
            regs_per_warp: kernel.regs_per_warp(),
            workspace: kernel.workspace(),
            ctas: indices.iter().map(|&i| (i, kernel.cta(i))).collect(),
        }
    }

    /// Content digest over the record's canonical JSON encoding: sensitive
    /// to every opcode, operand address, and dependency tag, independent
    /// of which file (if any) the record came from.
    pub fn content_digest(&self) -> u128 {
        digest::digest_json(&kernel_to_json(self))
    }

    /// The session-matching key: descriptor fields plus the recorded CTA
    /// index set (but not the instruction bytes), the identity under which
    /// a replay session swaps a generated kernel for this record.
    pub fn match_key(&self) -> u128 {
        let indices: Vec<usize> = self.ctas.iter().map(|&(i, _)| i).collect();
        match_key_parts(
            &self.name,
            self.num_ctas,
            self.shared_mem_per_cta,
            self.regs_per_warp,
            self.workspace.as_ref(),
            &indices,
        )
    }
}

/// Canonical JSON of a workspace descriptor (`null` without one): the
/// wtrace document's `workspace` field and part of the run-cache key
/// ([`crate::cache::run_key`]), so changing it moves every key.
pub(crate) fn workspace_json(ws: Option<&WorkspaceDesc>) -> Json {
    match ws {
        None => Json::Null,
        Some(w) => Json::obj()
            .field("base", w.base)
            .field("bytes", w.bytes)
            .field("elem_bytes", w.elem_bytes)
            .field("row_stride_elems", w.row_stride_elems)
            .field("input_w", w.input_w)
            .field("channels", w.channels)
            .field("fw", w.fw)
            .field("fh", w.fh)
            .field("out_w", w.out_w)
            .field("out_h", w.out_h)
            .field("stride", w.stride)
            .field("pad", w.pad)
            .field("batch", w.batch)
            .build(),
    }
}

fn match_key_parts(
    name: &str,
    num_ctas: usize,
    shared_mem_per_cta: u32,
    regs_per_warp: u32,
    workspace: Option<&WorkspaceDesc>,
    indices: &[usize],
) -> u128 {
    let idx: Vec<Json> = indices.iter().map(|&i| Json::from(i)).collect();
    digest::digest_json(
        &Json::obj()
            .field("name", name)
            .field("num_ctas", num_ctas)
            .field("shared_mem_per_cta", shared_mem_per_cta)
            .field("regs_per_warp", regs_per_warp)
            .field("workspace", workspace_json(workspace))
            .field("ctas", Json::Arr(idx))
            .build(),
    )
}

/// The CTA indices a run of `kernel` under `cfg` actually simulates: each
/// representative SM's round-robin share, truncated to the sampling
/// prefix. This is what a recording session captures and a replay session
/// matches.
pub fn simulated_ctas(cfg: &GpuConfig, num_ctas: usize) -> Vec<usize> {
    let set: BTreeSet<usize> = (0..cfg.sms_simulated)
        .flat_map(|sm_id| sm_ctas(cfg, sm_id, num_ctas).1)
        .collect();
    set.into_iter().collect()
}

fn match_key_for(cfg: &GpuConfig, kernel: &dyn Kernel) -> u128 {
    let indices = simulated_ctas(cfg, kernel.num_ctas());
    match_key_parts(
        kernel.name(),
        kernel.num_ctas(),
        kernel.shared_mem_per_cta(),
        kernel.regs_per_warp(),
        kernel.workspace().as_ref(),
        &indices,
    )
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn space_str(space: Space) -> &'static str {
    match space {
        Space::Global => "global",
        Space::Shared => "shared",
    }
}

fn op_to_json(op: &Op) -> Json {
    match *op {
        Op::WmmaLoad {
            dst,
            addr,
            rows,
            seg_bytes,
            row_stride,
            space,
        } => Json::obj()
            .field("op", "wmma.load")
            .field("dst", u64::from(dst.0))
            .field("addr", addr)
            .field("rows", u64::from(rows))
            .field("seg_bytes", u64::from(seg_bytes))
            .field("row_stride", row_stride)
            .field("space", space_str(space))
            .build(),
        Op::WmmaMma { d, a, b, c } => Json::obj()
            .field("op", "wmma.mma")
            .field("d", u64::from(d.0))
            .field("a", u64::from(a.0))
            .field("b", u64::from(b.0))
            .field("c", u64::from(c.0))
            .build(),
        Op::WmmaStore {
            src,
            addr,
            rows,
            seg_bytes,
            row_stride,
            space,
        } => Json::obj()
            .field("op", "wmma.store")
            .field("src", u64::from(src.0))
            .field("addr", addr)
            .field("rows", u64::from(rows))
            .field("seg_bytes", u64::from(seg_bytes))
            .field("row_stride", row_stride)
            .field("space", space_str(space))
            .build(),
        Op::Ld {
            dst,
            addr,
            bytes,
            space,
        } => Json::obj()
            .field("op", "ld")
            .field("dst", u64::from(dst.0))
            .field("addr", addr)
            .field("bytes", bytes)
            .field("space", space_str(space))
            .build(),
        Op::St {
            src,
            addr,
            bytes,
            space,
        } => Json::obj()
            .field("op", "st")
            .field("src", u64::from(src.0))
            .field("addr", addr)
            .field("bytes", bytes)
            .field("space", space_str(space))
            .build(),
        Op::Alu { dst, latency } => Json::obj()
            .field("op", "alu")
            .field("dst", dst.map(|r| u64::from(r.0)))
            .field("latency", u64::from(latency))
            .build(),
        Op::Bar => Json::obj().field("op", "bar").build(),
        Op::Exit => Json::obj().field("op", "exit").build(),
    }
}

fn kernel_to_json(rec: &KernelRecord) -> Json {
    let ctas: Vec<Json> = rec
        .ctas
        .iter()
        .map(|(idx, cta)| {
            let warps: Vec<Json> = cta
                .warps
                .iter()
                .enumerate()
                .map(|(w, warp)| {
                    let ops: Vec<Json> = warp.ops.iter().map(op_to_json).collect();
                    Json::obj()
                        .field("warp", w)
                        .field("ops", Json::Arr(ops))
                        .build()
                })
                .collect();
            Json::obj()
                .field("cta", *idx)
                .field("warps", Json::Arr(warps))
                .build()
        })
        .collect();
    Json::obj()
        .field("name", rec.name.as_str())
        .field(
            "grid",
            Json::obj()
                .field("num_ctas", rec.num_ctas)
                .field("shared_mem_per_cta", rec.shared_mem_per_cta)
                .field("regs_per_warp", rec.regs_per_warp)
                .build(),
        )
        .field("workspace", workspace_json(rec.workspace.as_ref()))
        .field("ctas", Json::Arr(ctas))
        .build()
}

/// Encodes a set of kernel records as a wtrace document.
pub fn encode(records: &[KernelRecord]) -> Json {
    Json::obj()
        .field("wtrace_version", WTRACE_VERSION)
        .field(
            "kernels",
            Json::Arr(records.iter().map(kernel_to_json).collect()),
        )
        .build()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A decode failure: what went wrong and exactly where.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WtraceError {
    /// Position path into the document (`kernels[0].ctas[2].warps[1]`).
    pub path: String,
    /// What was wrong there.
    pub msg: String,
}

impl fmt::Display for WtraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "{}: {}", self.path, self.msg)
        }
    }
}

impl std::error::Error for WtraceError {}

fn err<T>(path: &str, msg: impl Into<String>) -> Result<T, WtraceError> {
    Err(WtraceError {
        path: path.to_string(),
        msg: msg.into(),
    })
}

fn fields<'a>(v: &'a Json, path: &str) -> Result<&'a [(String, Json)], WtraceError> {
    match v {
        Json::Obj(fields) => Ok(fields),
        _ => err(path, "expected an object"),
    }
}

/// Checks that `v` is an object with exactly `expected` keys (any order).
fn expect_keys(v: &Json, path: &str, expected: &[&str]) -> Result<(), WtraceError> {
    let fields = fields(v, path)?;
    for (key, _) in fields {
        if !expected.contains(&key.as_str()) {
            return err(&format!("{path}.{key}"), "unexpected field");
        }
    }
    for want in expected {
        if !fields.iter().any(|(k, _)| k == want) {
            return err(path, format!("missing field {want:?}"));
        }
    }
    if fields.len() != expected.len() {
        return err(path, "duplicate field");
    }
    Ok(())
}

fn get_u64(v: &Json, path: &str, key: &str) -> Result<u64, WtraceError> {
    match v.get(key).and_then(Json::as_u64) {
        Some(n) => Ok(n),
        None => err(
            &format!("{path}.{key}"),
            "expected an unsigned integer".to_string(),
        ),
    }
}

fn get_int<T: TryFrom<u64>>(v: &Json, path: &str, key: &str, ty: &str) -> Result<T, WtraceError> {
    let n = get_u64(v, path, key)?;
    T::try_from(n).or_else(|_| {
        err(
            &format!("{path}.{key}"),
            format!("{n} out of range for {ty}"),
        )
    })
}

fn get_reg(v: &Json, path: &str, key: &str) -> Result<ArchReg, WtraceError> {
    Ok(ArchReg(get_int::<u16>(v, path, key, "a register (u16)")?))
}

fn get_space(v: &Json, path: &str) -> Result<Space, WtraceError> {
    match v.get("space").and_then(Json::as_str) {
        Some("global") => Ok(Space::Global),
        Some("shared") => Ok(Space::Shared),
        Some(other) => err(
            &format!("{path}.space"),
            format!("unknown space {other:?} (expected \"global\" or \"shared\")"),
        ),
        None => err(&format!("{path}.space"), "expected a string"),
    }
}

fn op_from_json(v: &Json, path: &str) -> Result<Op, WtraceError> {
    let opcode = match v.get("op").and_then(Json::as_str) {
        Some(s) => s,
        None => return err(&format!("{path}.op"), "expected an opcode string"),
    };
    match opcode {
        "wmma.load" => {
            expect_keys(
                v,
                path,
                &[
                    "op",
                    "dst",
                    "addr",
                    "rows",
                    "seg_bytes",
                    "row_stride",
                    "space",
                ],
            )?;
            Ok(Op::WmmaLoad {
                dst: get_reg(v, path, "dst")?,
                addr: get_u64(v, path, "addr")?,
                rows: get_int::<u8>(v, path, "rows", "rows (u8)")?,
                seg_bytes: get_int::<u16>(v, path, "seg_bytes", "seg_bytes (u16)")?,
                row_stride: get_u64(v, path, "row_stride")?,
                space: get_space(v, path)?,
            })
        }
        "wmma.mma" => {
            expect_keys(v, path, &["op", "d", "a", "b", "c"])?;
            Ok(Op::WmmaMma {
                d: get_reg(v, path, "d")?,
                a: get_reg(v, path, "a")?,
                b: get_reg(v, path, "b")?,
                c: get_reg(v, path, "c")?,
            })
        }
        "wmma.store" => {
            expect_keys(
                v,
                path,
                &[
                    "op",
                    "src",
                    "addr",
                    "rows",
                    "seg_bytes",
                    "row_stride",
                    "space",
                ],
            )?;
            Ok(Op::WmmaStore {
                src: get_reg(v, path, "src")?,
                addr: get_u64(v, path, "addr")?,
                rows: get_int::<u8>(v, path, "rows", "rows (u8)")?,
                seg_bytes: get_int::<u16>(v, path, "seg_bytes", "seg_bytes (u16)")?,
                row_stride: get_u64(v, path, "row_stride")?,
                space: get_space(v, path)?,
            })
        }
        "ld" => {
            expect_keys(v, path, &["op", "dst", "addr", "bytes", "space"])?;
            Ok(Op::Ld {
                dst: get_reg(v, path, "dst")?,
                addr: get_u64(v, path, "addr")?,
                bytes: get_int::<u32>(v, path, "bytes", "bytes (u32)")?,
                space: get_space(v, path)?,
            })
        }
        "st" => {
            expect_keys(v, path, &["op", "src", "addr", "bytes", "space"])?;
            Ok(Op::St {
                src: get_reg(v, path, "src")?,
                addr: get_u64(v, path, "addr")?,
                bytes: get_int::<u32>(v, path, "bytes", "bytes (u32)")?,
                space: get_space(v, path)?,
            })
        }
        "alu" => {
            expect_keys(v, path, &["op", "dst", "latency"])?;
            let dst = match v.get("dst") {
                Some(Json::Null) => None,
                _ => Some(get_reg(v, path, "dst")?),
            };
            Ok(Op::Alu {
                dst,
                latency: get_int::<u8>(v, path, "latency", "latency (u8)")?,
            })
        }
        "bar" => {
            expect_keys(v, path, &["op"])?;
            Ok(Op::Bar)
        }
        "exit" => {
            expect_keys(v, path, &["op"])?;
            Ok(Op::Exit)
        }
        other => err(&format!("{path}.op"), format!("unknown opcode {other:?}")),
    }
}

fn workspace_from_json(v: &Json, path: &str) -> Result<Option<WorkspaceDesc>, WtraceError> {
    if matches!(v, Json::Null) {
        return Ok(None);
    }
    expect_keys(
        v,
        path,
        &[
            "base",
            "bytes",
            "elem_bytes",
            "row_stride_elems",
            "input_w",
            "channels",
            "fw",
            "fh",
            "out_w",
            "out_h",
            "stride",
            "pad",
            "batch",
        ],
    )?;
    Ok(Some(WorkspaceDesc {
        base: get_u64(v, path, "base")?,
        bytes: get_u64(v, path, "bytes")?,
        elem_bytes: get_int::<u32>(v, path, "elem_bytes", "u32")?,
        row_stride_elems: get_int::<u32>(v, path, "row_stride_elems", "u32")?,
        input_w: get_int::<u32>(v, path, "input_w", "u32")?,
        channels: get_int::<u32>(v, path, "channels", "u32")?,
        fw: get_int::<u32>(v, path, "fw", "u32")?,
        fh: get_int::<u32>(v, path, "fh", "u32")?,
        out_w: get_int::<u32>(v, path, "out_w", "u32")?,
        out_h: get_int::<u32>(v, path, "out_h", "u32")?,
        stride: get_int::<u32>(v, path, "stride", "u32")?,
        pad: get_int::<u32>(v, path, "pad", "u32")?,
        batch: get_int::<u32>(v, path, "batch", "u32")?,
    }))
}

fn kernel_from_json(v: &Json, path: &str) -> Result<KernelRecord, WtraceError> {
    expect_keys(v, path, &["name", "grid", "workspace", "ctas"])?;
    let name = match v.get("name").and_then(Json::as_str) {
        Some(s) if !s.is_empty() => s.to_string(),
        Some(_) => return err(&format!("{path}.name"), "kernel name must be nonempty"),
        None => return err(&format!("{path}.name"), "expected a string"),
    };
    let grid = v.get("grid").expect("checked by expect_keys");
    let grid_path = format!("{path}.grid");
    expect_keys(
        grid,
        &grid_path,
        &["num_ctas", "shared_mem_per_cta", "regs_per_warp"],
    )?;
    let num_ctas = get_int::<usize>(grid, &grid_path, "num_ctas", "usize")?;
    let shared_mem_per_cta = get_int::<u32>(grid, &grid_path, "shared_mem_per_cta", "u32")?;
    let regs_per_warp = get_int::<u32>(grid, &grid_path, "regs_per_warp", "u32")?;
    let workspace = workspace_from_json(
        v.get("workspace").expect("checked by expect_keys"),
        &format!("{path}.workspace"),
    )?;
    let ctas_json = match v.get("ctas").and_then(Json::as_arr) {
        Some(a) => a,
        None => return err(&format!("{path}.ctas"), "expected an array"),
    };
    let mut ctas: Vec<(usize, CtaTrace)> = Vec::with_capacity(ctas_json.len());
    for (ci, cta_v) in ctas_json.iter().enumerate() {
        let cta_path = format!("{path}.ctas[{ci}]");
        expect_keys(cta_v, &cta_path, &["cta", "warps"])?;
        let idx = get_int::<usize>(cta_v, &cta_path, "cta", "usize")?;
        if idx >= num_ctas {
            return err(
                &format!("{cta_path}.cta"),
                format!("CTA index {idx} outside the declared grid of {num_ctas}"),
            );
        }
        if let Some(&(prev, _)) = ctas.last() {
            if idx == prev {
                return err(
                    &format!("{cta_path}.cta"),
                    format!("duplicate CTA index {idx}"),
                );
            }
            if idx < prev {
                return err(
                    &format!("{cta_path}.cta"),
                    format!("CTA index {idx} out of order (must ascend, previous was {prev})"),
                );
            }
        }
        let warps_json = match cta_v.get("warps").and_then(Json::as_arr) {
            Some(a) if !a.is_empty() => a,
            Some(_) => return err(&format!("{cta_path}.warps"), "CTA has no warps"),
            None => return err(&format!("{cta_path}.warps"), "expected an array"),
        };
        let mut warps: Vec<WarpTrace> = Vec::with_capacity(warps_json.len());
        for (wi, warp_v) in warps_json.iter().enumerate() {
            let warp_path = format!("{cta_path}.warps[{wi}]");
            expect_keys(warp_v, &warp_path, &["warp", "ops"])?;
            let wid = get_int::<usize>(warp_v, &warp_path, "warp", "usize")?;
            if wid < wi {
                return err(
                    &format!("{warp_path}.warp"),
                    format!("duplicate warp index {wid}"),
                );
            }
            if wid > wi {
                return err(
                    &format!("{warp_path}.warp"),
                    format!("warp index {wid} out of order (expected {wi}; warps are dense)"),
                );
            }
            let ops_json = match warp_v.get("ops").and_then(Json::as_arr) {
                Some(a) => a,
                None => return err(&format!("{warp_path}.ops"), "expected an array"),
            };
            let mut ops = Vec::with_capacity(ops_json.len());
            for (oi, op_v) in ops_json.iter().enumerate() {
                ops.push(op_from_json(op_v, &format!("{warp_path}.ops[{oi}]"))?);
            }
            warps.push(WarpTrace { ops });
        }
        let cta = CtaTrace { warps };
        if let Err(e) = validate_cta(&cta) {
            return err(&cta_path, format!("invalid trace: {e}"));
        }
        ctas.push((idx, cta));
    }
    Ok(KernelRecord {
        name,
        num_ctas,
        shared_mem_per_cta,
        regs_per_warp,
        workspace,
        ctas,
    })
}

/// Decodes a wtrace document (strict; see the module docs).
pub fn decode(doc: &Json) -> Result<Vec<KernelRecord>, WtraceError> {
    expect_keys(doc, "", &["wtrace_version", "kernels"])?;
    match doc.get("wtrace_version").and_then(Json::as_u64) {
        Some(WTRACE_VERSION) => {}
        Some(v) => {
            return err(
                "wtrace_version",
                format!("unsupported version {v} (this build reads version {WTRACE_VERSION})"),
            );
        }
        None => return err("wtrace_version", "expected an unsigned integer"),
    }
    let kernels_json = match doc.get("kernels").and_then(Json::as_arr) {
        Some(a) => a,
        None => return err("kernels", "expected an array"),
    };
    let mut records = Vec::with_capacity(kernels_json.len());
    let mut seen = BTreeSet::new();
    for (ki, kv) in kernels_json.iter().enumerate() {
        let rec = kernel_from_json(kv, &format!("kernels[{ki}]"))?;
        if !seen.insert(rec.match_key()) {
            return err(
                &format!("kernels[{ki}]"),
                format!("duplicate kernel entry for {:?}", rec.name),
            );
        }
        records.push(rec);
    }
    Ok(records)
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

/// Reads and decodes a wtrace file into replayable kernels.
///
/// # Errors
///
/// I/O failures, JSON syntax errors (with byte positions from
/// [`crate::json::parse`]), and wtrace decode errors (with position
/// paths), all as a display-ready string.
pub fn load_file(path: &Path) -> Result<Vec<TraceKernel>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: not valid JSON: {e}", path.display()))?;
    let records = decode(&doc).map_err(|e| format!("{}: invalid wtrace: {e}", path.display()))?;
    Ok(records.into_iter().map(TraceKernel::new).collect())
}

// ---------------------------------------------------------------------------
// Replay kernel
// ---------------------------------------------------------------------------

/// A decoded trace, replayable through [`crate::GpuSim::run`] like any
/// generated kernel. CTA lookups resolve against the recorded subset;
/// asking for an unrecorded CTA (e.g. replaying under a larger `--sample`
/// than the recording used) panics with a pointed message.
#[derive(Clone, Debug)]
pub struct TraceKernel {
    record: KernelRecord,
    digest: u128,
}

impl TraceKernel {
    /// Wraps a decoded record, stamping its content digest (which salts
    /// the run-cache key via [`Kernel::content_digest`]).
    pub fn new(record: KernelRecord) -> TraceKernel {
        let digest = record.content_digest();
        TraceKernel { record, digest }
    }

    /// The underlying record.
    pub fn record(&self) -> &KernelRecord {
        &self.record
    }
}

impl Kernel for TraceKernel {
    fn name(&self) -> &str {
        &self.record.name
    }

    fn num_ctas(&self) -> usize {
        self.record.num_ctas
    }

    fn cta(&self, idx: usize) -> CtaTrace {
        match self.record.ctas.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.record.ctas[pos].1.clone(),
            Err(_) => panic!(
                "trace of kernel {:?} has no CTA {idx} (recorded CTAs: {}; was the trace \
                 recorded under a different sampling configuration?)",
                self.record.name,
                self.record.ctas.len()
            ),
        }
    }

    fn shared_mem_per_cta(&self) -> u32 {
        self.record.shared_mem_per_cta
    }

    fn regs_per_warp(&self) -> u32 {
        self.record.regs_per_warp
    }

    fn workspace(&self) -> Option<WorkspaceDesc> {
        self.record.workspace
    }

    fn content_digest(&self) -> Option<u128> {
        Some(self.digest)
    }
}

// ---------------------------------------------------------------------------
// Record/replay sessions
// ---------------------------------------------------------------------------

enum Session {
    /// match key -> captured record, deduplicated.
    Record(Mutex<HashMap<u128, KernelRecord>>),
    /// match key -> replacement kernel, plus the substitution count.
    Replay {
        kernels: HashMap<u128, Arc<TraceKernel>>,
        substituted: AtomicU64,
    },
}

/// A record or replay session for the runs that carry it in
/// [`crate::RunOptions::wtrace`]. Clones share one session, and a session
/// is never part of a cache key.
#[derive(Clone)]
pub struct WtraceSession(Arc<Session>);

impl fmt::Debug for WtraceSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &*self.0 {
            Session::Record(_) => f.write_str("WtraceSession::Record"),
            Session::Replay { .. } => f.write_str("WtraceSession::Replay"),
        }
    }
}

impl WtraceSession {
    /// A recording session: every kernel a run carrying it reaches
    /// [`crate::GpuSim::run`] with is captured (deduplicated by descriptor
    /// + simulated-CTA set) ahead of the run-cache lookup, so recording
    /// works even when every run is a cache hit.
    pub fn record() -> WtraceSession {
        WtraceSession(Arc::new(Session::Record(Mutex::new(HashMap::new()))))
    }

    /// A replay session over `kernels`: every generated kernel a run
    /// carrying it simulates is swapped for its recorded trace (matched by
    /// descriptor + simulated-CTA set).
    pub fn replay(kernels: Vec<TraceKernel>) -> WtraceSession {
        let kernels = kernels
            .into_iter()
            .map(|k| (k.record.match_key(), Arc::new(k)))
            .collect();
        WtraceSession(Arc::new(Session::Replay {
            kernels,
            substituted: AtomicU64::new(0),
        }))
    }

    /// The records captured so far, sorted by `(name, content digest)` so
    /// the encoded document is byte-identical at any thread count (empty
    /// for a replay session).
    pub fn records(&self) -> Vec<KernelRecord> {
        let Session::Record(kernels) = &*self.0 else {
            return Vec::new();
        };
        let kernels = kernels.lock().unwrap_or_else(|e| e.into_inner());
        let mut records: Vec<KernelRecord> = kernels.values().cloned().collect();
        records.sort_by_key(|r| (r.name.clone(), r.content_digest()));
        records
    }

    /// How many runs a replay session has substituted (0 when recording).
    pub fn substituted(&self) -> u64 {
        match &*self.0 {
            Session::Record(_) => 0,
            Session::Replay { substituted, .. } => substituted.load(Ordering::Relaxed),
        }
    }

    /// Called by [`crate::GpuSim::run`] on every kernel before simulation:
    /// captures `kernel` in a recording session, or returns the recorded
    /// [`TraceKernel`] to simulate instead of it in a replay session.
    /// Kernels that are themselves replayed traces pass through untouched.
    ///
    /// # Panics
    ///
    /// Panics when a replay session holds no record matching the kernel —
    /// the trace file was recorded for a different experiment or under a
    /// different sampling configuration, and silently falling back to the
    /// generator would make replay vacuous.
    pub(crate) fn resolve(&self, cfg: &GpuConfig, kernel: &dyn Kernel) -> Option<Arc<TraceKernel>> {
        if kernel.content_digest().is_some() {
            return None;
        }
        let key = match_key_for(cfg, kernel);
        match &*self.0 {
            Session::Record(kernels) => {
                let seen = kernels
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .contains_key(&key);
                if !seen {
                    // Materialize outside the lock: CTA generation
                    // dominates, and a racing duplicate capture is
                    // deterministic in content, so last-insert wins
                    // harmlessly.
                    let record =
                        KernelRecord::capture(kernel, &simulated_ctas(cfg, kernel.num_ctas()));
                    kernels
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(key, record);
                }
                None
            }
            Session::Replay {
                kernels,
                substituted,
            } => match kernels.get(&key) {
                Some(rk) => {
                    substituted.fetch_add(1, Ordering::Relaxed);
                    Some(Arc::clone(rk))
                }
                None => panic!(
                    "wtrace replay: no recorded kernel matches {:?} ({} CTAs simulated of {}); \
                     the trace was recorded for a different experiment or sampling configuration",
                    kernel.name(),
                    simulated_ctas(cfg, kernel.num_ctas()).len(),
                    kernel.num_ctas(),
                ),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duplo_kernels::{GemmTcKernel, SmemPolicy};

    fn small_kernel() -> GemmTcKernel {
        GemmTcKernel::new(64, 64, 32, SmemPolicy::COnly)
    }

    #[test]
    fn capture_round_trips_through_encode_decode() {
        let k = small_kernel();
        let cfg = GpuConfig::titan_v();
        let rec = KernelRecord::capture(&k, &simulated_ctas(&cfg, k.num_ctas()));
        let doc = encode(std::slice::from_ref(&rec));
        let back = decode(&doc).expect("decode must succeed");
        assert_eq!(back, vec![rec.clone()]);
        assert_eq!(encode(&back).to_pretty(), doc.to_pretty());
    }

    #[test]
    fn trace_kernel_mirrors_the_source_kernel() {
        let k = small_kernel();
        let cfg = GpuConfig::titan_v();
        let indices = simulated_ctas(&cfg, k.num_ctas());
        let rec = KernelRecord::capture(&k, &indices);
        let tk = TraceKernel::new(rec);
        assert_eq!(tk.name(), k.name());
        assert_eq!(tk.num_ctas(), k.num_ctas());
        assert_eq!(tk.shared_mem_per_cta(), k.shared_mem_per_cta());
        assert_eq!(tk.regs_per_warp(), k.regs_per_warp());
        assert!(tk.content_digest().is_some());
        for &i in &indices {
            assert_eq!(tk.cta(i), k.cta(i), "CTA {i} must replay identically");
        }
    }

    #[test]
    fn simulated_ctas_honors_sampling_and_shares() {
        let mut cfg = GpuConfig::titan_v(); // 80 SMs, 1 simulated
        assert_eq!(simulated_ctas(&cfg, 3), vec![0]);
        assert_eq!(simulated_ctas(&cfg, 200), vec![0, 80, 160]);
        cfg.sample_ctas = Some(2);
        assert_eq!(simulated_ctas(&cfg, 200), vec![0, 80]);
        cfg.sms_simulated = 2;
        assert_eq!(simulated_ctas(&cfg, 200), vec![0, 1, 80, 81]);
    }

    #[test]
    fn version_skew_is_rejected_with_a_pointed_error() {
        let doc = Json::obj()
            .field("wtrace_version", WTRACE_VERSION + 1)
            .field("kernels", Json::Arr(vec![]))
            .build();
        let e = decode(&doc).unwrap_err();
        assert_eq!(e.path, "wtrace_version");
        assert!(e.to_string().contains("unsupported version"), "{e}");
    }

    #[test]
    fn unknown_opcode_error_carries_the_position_path() {
        let k = small_kernel();
        let rec = KernelRecord::capture(&k, &[0]);
        let mut doc = encode(std::slice::from_ref(&rec));
        // Corrupt the first op's opcode in place.
        let Json::Obj(top) = &mut doc else { panic!() };
        let Json::Arr(kernels) = &mut top[1].1 else {
            panic!()
        };
        let Json::Obj(kern) = &mut kernels[0] else {
            panic!()
        };
        let Json::Arr(ctas) = &mut kern[3].1 else {
            panic!()
        };
        let Json::Obj(cta) = &mut ctas[0] else {
            panic!()
        };
        let Json::Arr(warps) = &mut cta[1].1 else {
            panic!()
        };
        let Json::Obj(warp) = &mut warps[0] else {
            panic!()
        };
        let Json::Arr(ops) = &mut warp[1].1 else {
            panic!()
        };
        ops[0] = Json::obj().field("op", "frobnicate").build();
        let e = decode(&doc).unwrap_err();
        assert_eq!(e.path, "kernels[0].ctas[0].warps[0].ops[0].op");
        assert!(e.msg.contains("frobnicate"), "{e}");
    }
}
