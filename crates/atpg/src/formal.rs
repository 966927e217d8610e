//! SAT-based (formal) test pattern generation.
//!
//! The simulation engines plateau on hard-to-reach branches and
//! hard-to-excite faults; Laerte++'s answer — and this module's — is to
//! compile the question into SAT:
//!
//! * **branch targeting** ([`sat_branch_tpg`]): a reachability *probe* is
//!   planted in the target branch arm and the instrumented function is
//!   synthesized to combinational RTL; a model of "probe output = 1" is a
//!   test vector reaching the branch (or `None` proves the branch dead),
//! * **fault targeting** ([`sat_fault_tpg`]): a stuck-at bit fault is
//!   injected *behaviourally* (masking every assignment to the target
//!   variable), both versions are synthesized, and a miter asks for inputs
//!   on which they differ; `None` proves the fault untestable.
//!
//! Both run on loop-free functions (unroll first — the same precondition as
//! synthesis).

use crate::Testbench;
use behav::interp::{BitFault, Interpreter};
use behav::{CondId, Expr, Function, Stmt, VarId};
use hdl::lower::{lower, BitCtx, CnfBackend};
use hdl::synth::{synthesize, SynthError};
use sat::Lit;

/// Errors from the formal engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormalError {
    /// The function could not be synthesized (loops/arrays/…).
    Synth(SynthError),
    /// The requested branch condition id does not exist.
    NoSuchCondition(CondId),
}

impl From<SynthError> for FormalError {
    fn from(e: SynthError) -> Self {
        FormalError::Synth(e)
    }
}

impl std::fmt::Display for FormalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormalError::Synth(e) => write!(f, "synthesis failed: {e}"),
            FormalError::NoSuchCondition(c) => {
                write!(f, "no branch condition with id {}", c.index())
            }
        }
    }
}

impl std::error::Error for FormalError {}

/// Rewrites `func` so that it returns 1 iff the branch `(cond_id, dir)` is
/// executed in direction `dir`. Early returns keep their control effect but
/// the returned value becomes the probe.
fn instrument_branch(func: &Function, cond_id: CondId, dir: bool) -> Option<Function> {
    // The probe is a fresh local appended to the variable table.
    let mut vars = func.vars().to_vec();
    vars.push(behav::VarDecl {
        name: "__probe".to_owned(),
        width: 1,
        kind: behav::VarKind::Local,
    });
    let probe = VarId::from_index(vars.len() - 1);
    let mut found = false;
    let mut body = rewrite_block(func.body(), cond_id, dir, probe, &mut found);
    if !found {
        return None;
    }
    // Final fall-through return of the probe.
    body.push(Stmt::Return {
        id: behav::StmtId::placeholder(),
        value: Some(Expr::var(probe)),
    });
    Some(behav::Function::rebuild(
        format!("{}_probe", func.name()),
        vars,
        func.num_params(),
        1,
        body,
    ))
}

fn rewrite_block(
    stmts: &[Stmt],
    cond_id: CondId,
    dir: bool,
    probe: VarId,
    found: &mut bool,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::If {
                id,
                cond_id: cid,
                cond,
                then_,
                else_,
            } => {
                let mut then_2 = rewrite_block(then_, cond_id, dir, probe, found);
                let mut else_2 = rewrite_block(else_, cond_id, dir, probe, found);
                if *cid == cond_id {
                    *found = true;
                    let mark = Stmt::Assign {
                        id: behav::StmtId::placeholder(),
                        target: probe,
                        value: Expr::constant(1, 1),
                    };
                    if dir {
                        then_2.insert(0, mark);
                    } else {
                        else_2.insert(0, mark);
                    }
                }
                out.push(Stmt::If {
                    id: *id,
                    cond_id: *cid,
                    cond: cond.clone(),
                    then_: then_2,
                    else_: else_2,
                });
            }
            Stmt::Return { id, .. } => {
                // Keep the control effect; the value becomes the probe.
                out.push(Stmt::Return {
                    id: *id,
                    value: Some(Expr::var(probe)),
                });
            }
            other => out.push(other.clone()),
        }
    }
    out
}

/// Finds an input vector that drives branch `(cond_id, dir)` of the
/// (loop-free) function, or returns `Ok(None)` — a *proof* that the branch
/// direction is unreachable (dead code).
///
/// # Errors
///
/// Returns [`FormalError`] when the function cannot be synthesized or the
/// condition id does not exist.
pub fn sat_branch_tpg(
    func: &Function,
    cond_id: CondId,
    dir: bool,
) -> Result<Option<Vec<u64>>, FormalError> {
    sat_branch_tpg_cached(func, cond_id, dir, cache::noop())
}

/// [`sat_branch_tpg`] backed by the obligation cache (engine tag
/// `"atpg.branch"`). The fingerprint covers the synthesized probe CNF,
/// the input literal layout, and the probe root, so a hit replays either
/// the stored test vector or the stored unreachability proof without
/// solving. [`cache::noop()`] skips fingerprinting entirely.
///
/// # Errors
///
/// As [`sat_branch_tpg`] (synthesis runs before any cache lookup).
pub fn sat_branch_tpg_cached(
    func: &Function,
    cond_id: CondId,
    dir: bool,
    cache: &cache::ObligationCache,
) -> Result<Option<Vec<u64>>, FormalError> {
    let instrumented =
        instrument_branch(func, cond_id, dir).ok_or(FormalError::NoSuchCondition(cond_id))?;
    let rtl = synthesize(&instrumented)?;
    let mut ctx = CnfBackend::new();
    let input_bits: Vec<Vec<Lit>> = rtl
        .inputs()
        .iter()
        .map(|&i| (0..rtl.width(i)).map(|_| ctx.bit_fresh()).collect())
        .collect();
    let lowered = lower(&rtl, &mut ctx, &input_bits, &[]);
    let probe_bit = lowered.outputs(&rtl)[0].1[0];
    let fp = if cache.is_enabled() {
        let flat: Vec<Lit> = input_bits.iter().flatten().copied().collect();
        let cnf = ctx.builder_mut().solver().export_cnf();
        let fp = cache::FingerprintBuilder::new("atpg.branch")
            .lits(&flat)
            .lits(&[probe_bit])
            .cnf(&cnf)
            .finish();
        if let Some(payload) = cache.lookup_tagged("atpg.branch", fp) {
            if let Some(model) = decode_model(&payload) {
                return Ok(model);
            }
        }
        Some(fp)
    } else {
        None
    };
    let builder = ctx.builder_mut();
    builder.assert_lit(probe_bit);
    let result = if builder.solve().is_unsat() {
        None
    } else {
        Some(read_model(builder, &input_bits))
    };
    if let Some(fp) = fp {
        cache.insert_tagged("atpg.branch", fp, encode_model(result.as_deref()));
    }
    Ok(result)
}

/// Injects a bit fault behaviourally: every assignment to `fault.var` has
/// the faulty bit forced. This mirrors the interpreter's fault semantics,
/// so SAT answers agree with fault simulation.
pub fn inject_fault(func: &Function, fault: BitFault) -> Function {
    let body = inject_block(func.body(), fault, func);
    behav::Function::rebuild(
        format!("{}_faulty", func.name()),
        func.vars().to_vec(),
        func.num_params(),
        func.ret_width(),
        body,
    )
}

fn faulty_value(value: &Expr, fault: BitFault, width: u32) -> Expr {
    if fault.bit >= width {
        return value.clone();
    }
    if fault.stuck_at {
        Expr::or(value.clone(), Expr::constant(1u64 << fault.bit, width))
    } else {
        let m = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        Expr::and(
            value.clone(),
            Expr::constant(m & !(1u64 << fault.bit), width),
        )
    }
}

fn inject_block(stmts: &[Stmt], fault: BitFault, func: &Function) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Assign { id, target, value } if *target == fault.var => Stmt::Assign {
                id: *id,
                target: *target,
                value: faulty_value(value, fault, func.var(*target).width),
            },
            Stmt::If {
                id,
                cond_id,
                cond,
                then_,
                else_,
            } => Stmt::If {
                id: *id,
                cond_id: *cond_id,
                cond: cond.clone(),
                then_: inject_block(then_, fault, func),
                else_: inject_block(else_, fault, func),
            },
            Stmt::While {
                id,
                cond_id,
                cond,
                body,
            } => Stmt::While {
                id: *id,
                cond_id: *cond_id,
                cond: cond.clone(),
                body: inject_block(body, fault, func),
            },
            other => other.clone(),
        })
        .collect()
}

/// Finds an input vector on which the fault changes the function's output
/// (a *test* for the fault), or `Ok(None)` — a proof the fault is
/// untestable. Loop-free functions only.
///
/// # Errors
///
/// Returns [`FormalError::Synth`] when either version cannot be
/// synthesized.
pub fn sat_fault_tpg(func: &Function, fault: BitFault) -> Result<Option<Vec<u64>>, FormalError> {
    sat_fault_tpg_cached(func, fault, &telemetry::noop(), cache::noop())
}

/// [`sat_fault_tpg`] backed by the obligation cache (engine tag
/// `"atpg.fault"`). The fingerprint covers the good/faulty miter CNF, the
/// shared input literal layout, and the "outputs differ" root, so a hit
/// replays the stored test vector or untestability proof without solving.
/// The miter's solver reports its effort (`sat.*` counters) to
/// `instrument`; a cache hit solves nothing and reports nothing.
///
/// # Errors
///
/// As [`sat_fault_tpg`] (both syntheses run before any cache lookup).
pub fn sat_fault_tpg_cached(
    func: &Function,
    fault: BitFault,
    instrument: &telemetry::SharedInstrument,
    cache: &cache::ObligationCache,
) -> Result<Option<Vec<u64>>, FormalError> {
    let good = synthesize(func)?;
    let bad = synthesize(&inject_fault(func, fault))?;
    let mut ctx = CnfBackend::new();
    if instrument.enabled() {
        ctx.builder_mut().set_instrument(instrument.clone());
    }
    let input_bits: Vec<Vec<Lit>> = good
        .inputs()
        .iter()
        .map(|&i| (0..good.width(i)).map(|_| ctx.bit_fresh()).collect())
        .collect();
    let lg = lower(&good, &mut ctx, &input_bits, &[]);
    let lb = lower(&bad, &mut ctx, &input_bits, &[]);
    let out_g = lg.outputs(&good)[0].1.clone();
    let out_b = lb.outputs(&bad)[0].1.clone();
    // Miter: outputs differ in at least one bit.
    let mut diff_bits = Vec::new();
    for (&g, &b) in out_g.iter().zip(&out_b) {
        diff_bits.push(ctx.bit_xor(g, b));
    }
    let builder = ctx.builder_mut();
    let any = diff_bits
        .iter()
        .fold(None::<Lit>, |acc, &d| match acc {
            None => Some(d),
            Some(a) => Some(builder.or_gate(a, d)),
        })
        .expect("at least one output bit");
    let fp = if cache.is_enabled() {
        let flat: Vec<Lit> = input_bits.iter().flatten().copied().collect();
        let cnf = builder.solver().export_cnf();
        let fp = cache::FingerprintBuilder::new("atpg.fault")
            .lits(&flat)
            .lits(&[any])
            .cnf(&cnf)
            .finish();
        if let Some(payload) = cache.lookup_tagged("atpg.fault", fp) {
            if let Some(model) = decode_model(&payload) {
                return Ok(model);
            }
        }
        Some(fp)
    } else {
        None
    };
    builder.assert_lit(any);
    let result = if builder.solve().is_unsat() {
        None
    } else {
        Some(read_model(builder, &input_bits))
    };
    if let Some(fp) = fp {
        cache.insert_tagged("atpg.fault", fp, encode_model(result.as_deref()));
    }
    Ok(result)
}

/// Completes a testbench's *bit coverage* formally: for every fault left
/// undetected by `tb`, asks SAT for a distinguishing vector (appending it)
/// or proves the fault untestable. Returns the extended testbench and the
/// number of proven-untestable faults. Loop-free functions only.
///
/// After this, `metrics::bit_coverage` detects every testable fault — the
/// formal engine finishing what the simulation engines plateaued on,
/// exactly Laerte++'s division of labour.
///
/// # Errors
///
/// Propagates synthesis failures.
pub fn complete_faults_with_sat(
    func: &Function,
    tb: &Testbench,
) -> Result<(Testbench, u32), FormalError> {
    complete_faults_with_sat_mode(func, tb, exec::ExecMode::Sequential)
}

/// [`complete_faults_with_sat`] with each undetected fault generated as an
/// independent obligation, optionally across worker threads. Obligations
/// share nothing (each builds its own miter and solver) and results are
/// merged in fault order, so the extended testbench is bit-identical to
/// the sequential one for every mode.
///
/// # Errors
///
/// Propagates synthesis failures (the first, in fault order).
pub fn complete_faults_with_sat_mode(
    func: &Function,
    tb: &Testbench,
    mode: exec::ExecMode,
) -> Result<(Testbench, u32), FormalError> {
    complete_faults_with_sat_cached(func, tb, mode, cache::noop())
}

/// [`complete_faults_with_sat_mode`] with every per-fault obligation
/// backed by the shared obligation cache.
///
/// # Errors
///
/// As [`complete_faults_with_sat_mode`].
pub fn complete_faults_with_sat_cached(
    func: &Function,
    tb: &Testbench,
    mode: exec::ExecMode,
    cache: &cache::ObligationCache,
) -> Result<(Testbench, u32), FormalError> {
    let cov = crate::metrics::bit_coverage(func, tb);
    let results = exec::map(mode, cov.undetected, |_, fault| {
        sat_fault_tpg_cached(func, fault, &telemetry::noop(), cache)
    });
    let mut out = tb.clone();
    let mut untestable = 0u32;
    for r in results {
        match r? {
            Some(v) => out.vectors.push(v),
            None => untestable += 1,
        }
    }
    Ok((out, untestable))
}

/// Payload codec for TPG results: `none` proves the target untestable /
/// unreachable; `m:v1,v2,…` is a concrete input vector (possibly empty
/// for zero-input functions, encoded as bare `m:`).
fn encode_model(model: Option<&[u64]>) -> String {
    match model {
        None => "none".to_owned(),
        Some(values) => {
            let body: Vec<String> = values.iter().map(u64::to_string).collect();
            format!("m:{}", body.join(","))
        }
    }
}

fn decode_model(payload: &str) -> Option<Option<Vec<u64>>> {
    if payload == "none" {
        return Some(None);
    }
    let body = payload.strip_prefix("m:")?;
    if body.is_empty() {
        return Some(Some(Vec::new()));
    }
    body.split(',')
        .map(|v| v.parse().ok())
        .collect::<Option<Vec<u64>>>()
        .map(Some)
}

fn read_model(builder: &sat::CnfBuilder, input_bits: &[Vec<Lit>]) -> Vec<u64> {
    input_bits
        .iter()
        .map(|bits| {
            let mut v = 0u64;
            for (i, &l) in bits.iter().enumerate() {
                if builder.lit_value(l) {
                    v |= 1 << i;
                }
            }
            v
        })
        .collect()
}

/// Completes a testbench formally: for every branch direction left
/// uncovered by `tb`, asks SAT for a vector (appending it when one exists).
/// Returns the extended testbench and the number of branch directions
/// proven unreachable.
///
/// # Errors
///
/// Propagates synthesis failures.
pub fn complete_with_sat(func: &Function, tb: &Testbench) -> Result<(Testbench, u32), FormalError> {
    complete_with_sat_mode(func, tb, exec::ExecMode::Sequential)
}

/// [`complete_with_sat`] with each uncovered branch targeted as an
/// independent obligation, optionally across worker threads. Vectors are
/// merged in branch order, so the extended testbench is bit-identical to
/// the sequential one for every mode.
///
/// # Errors
///
/// Propagates synthesis failures (the first, in branch order).
pub fn complete_with_sat_mode(
    func: &Function,
    tb: &Testbench,
    mode: exec::ExecMode,
) -> Result<(Testbench, u32), FormalError> {
    complete_with_sat_cached(func, tb, mode, cache::noop())
}

/// [`complete_with_sat_mode`] with every per-branch obligation backed by
/// the shared obligation cache.
///
/// # Errors
///
/// As [`complete_with_sat_mode`].
pub fn complete_with_sat_cached(
    func: &Function,
    tb: &Testbench,
    mode: exec::ExecMode,
    cache: &cache::ObligationCache,
) -> Result<(Testbench, u32), FormalError> {
    let merged = crate::metrics::evaluate(func, &tb.vectors);
    let report = merged.report();
    let results = exec::map(mode, report.uncovered_branches, |_, (cond, dir)| {
        sat_branch_tpg_cached(func, cond, dir, cache)
    });
    let mut out = tb.clone();
    let mut unreachable = 0u32;
    for r in results {
        match r? {
            Some(v) => {
                // Cross-check with the interpreter before trusting SAT.
                let run = Interpreter::new(func).run(&v);
                debug_assert!(run.is_ok());
                out.vectors.push(v);
            }
            None => unreachable += 1,
        }
    }
    Ok((out, unreachable))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use behav::{Expr, FunctionBuilder};

    /// Needle in a 16-bit haystack: a*3+7 == 0x1234 has exactly one
    /// solution, hopeless for random search.
    fn needle() -> Function {
        let mut fb = FunctionBuilder::new("needle", 8);
        let a = fb.param("a", 16);
        let x = fb.local("x", 16);
        fb.assign(
            x,
            Expr::add(
                Expr::mul(Expr::var(a), Expr::constant(3, 16)),
                Expr::constant(7, 16),
            ),
        );
        fb.if_else(
            Expr::eq(Expr::var(x), Expr::constant(0x1234, 16)),
            |t| t.ret(Expr::constant(1, 8)),
            |e| e.ret(Expr::constant(0, 8)),
        );
        fb.build()
    }

    #[test]
    fn sat_finds_the_needle_branch() {
        let f = needle();
        // cond_id 0 is the (only) if condition; direction true.
        let v = sat_branch_tpg(&f, cond_of(&f, 0), true)
            .expect("synthesizable")
            .expect("reachable");
        // The vector genuinely drives the branch.
        let out = Interpreter::new(&f).run(&v).unwrap();
        assert_eq!(out.return_value, Some(1));
    }

    #[test]
    fn dead_branch_is_proven_unreachable() {
        // if (a & 1) == 2 — impossible for a 1-bit result… build an
        // genuinely dead condition: x = a & 0; if x == 1 {…}.
        let mut fb = FunctionBuilder::new("dead", 8);
        let a = fb.param("a", 8);
        let x = fb.local("x", 8);
        fb.assign(x, Expr::and(Expr::var(a), Expr::constant(0, 8)));
        fb.if_else(
            Expr::eq(Expr::var(x), Expr::constant(1, 8)),
            |t| t.ret(Expr::constant(1, 8)),
            |e| e.ret(Expr::constant(0, 8)),
        );
        let f = fb.build();
        let res = sat_branch_tpg(&f, cond_of(&f, 0), true).expect("synthesizable");
        assert_eq!(res, None, "branch must be proven dead");
        // The false direction is reachable.
        assert!(sat_branch_tpg(&f, cond_of(&f, 0), false).unwrap().is_some());
    }

    #[test]
    fn fault_tpg_finds_test_vector() {
        let mut fb = FunctionBuilder::new("inc", 8);
        let a = fb.param("a", 8);
        let x = fb.local("x", 8);
        fb.assign(x, Expr::add(Expr::var(a), Expr::constant(1, 8)));
        fb.ret(Expr::var(x));
        let f = fb.build();
        let x_id = f.var_by_name("x").unwrap();
        let fault = BitFault {
            var: x_id,
            bit: 0,
            stuck_at: false,
        };
        let v = sat_fault_tpg(&f, fault)
            .expect("synthesizable")
            .expect("testable");
        // Verify by fault simulation.
        let good = Interpreter::new(&f).run(&v).unwrap().return_value;
        let bad = Interpreter::new(&f)
            .with_fault(fault)
            .run(&v)
            .unwrap()
            .return_value;
        assert_ne!(good, bad);
    }

    #[test]
    fn untestable_fault_is_proven() {
        // x is assigned but never observed: faults on it are untestable.
        let mut fb = FunctionBuilder::new("deadvar", 8);
        let a = fb.param("a", 8);
        let x = fb.local("x", 8);
        fb.assign(x, Expr::var(a));
        fb.ret(Expr::var(a));
        let f = fb.build();
        let x_id = f.var_by_name("x").unwrap();
        let res = sat_fault_tpg(
            &f,
            BitFault {
                var: x_id,
                bit: 3,
                stuck_at: true,
            },
        )
        .expect("synthesizable");
        assert_eq!(res, None);
    }

    #[test]
    fn complete_with_sat_reaches_full_branch_coverage() {
        let f = needle();
        let tb = Testbench {
            vectors: vec![vec![0], vec![1]], // random-ish: misses the needle
        };
        let before = metrics::evaluate(&f, &tb.vectors).report();
        assert!(before.branch_pct() < 100.0);
        let (completed, unreachable) = complete_with_sat(&f, &tb).expect("works");
        assert_eq!(unreachable, 0);
        let after = metrics::evaluate(&f, &completed.vectors).report();
        assert_eq!(after.branch_pct(), 100.0);
    }

    #[test]
    fn complete_faults_reaches_full_testable_bit_coverage() {
        let f = needle();
        // Start from a weak testbench.
        let tb = Testbench {
            vectors: vec![vec![0]],
        };
        let before = metrics::bit_coverage(&f, &tb);
        assert!(before.detected < before.total);
        let (completed, untestable) = complete_faults_with_sat(&f, &tb).expect("works");
        let after = metrics::bit_coverage(&f, &completed);
        assert_eq!(
            after.detected as u32 + untestable,
            after.total as u32,
            "every fault either detected or proven untestable: {after:?}"
        );
        assert!(after.detected > before.detected);
    }

    #[test]
    fn parallel_completion_is_bit_identical() {
        let f = needle();
        let tb = Testbench {
            vectors: vec![vec![0]],
        };
        let branch_ref = complete_with_sat(&f, &tb).expect("works");
        let fault_ref = complete_faults_with_sat(&f, &tb).expect("works");
        for workers in [2, 8] {
            let mode = exec::ExecMode::Parallel { workers };
            let branches = complete_with_sat_mode(&f, &tb, mode).expect("works");
            assert_eq!(branches.0.vectors, branch_ref.0.vectors);
            assert_eq!(branches.1, branch_ref.1);
            let faults = complete_faults_with_sat_mode(&f, &tb, mode).expect("works");
            assert_eq!(faults.0.vectors, fault_ref.0.vectors);
            assert_eq!(faults.1, fault_ref.1);
        }
    }

    #[test]
    fn cached_tpg_replays_vectors_and_proofs() {
        let f = needle();
        let cache = cache::ObligationCache::new();
        let target = cond_of(&f, 0);
        let cold = sat_branch_tpg_cached(&f, target, true, &cache).expect("synthesizable");
        assert!(cold.is_some());
        let warm = sat_branch_tpg_cached(&f, target, true, &cache).expect("synthesizable");
        assert_eq!(warm, cold);
        assert_eq!(cache.stats().hits, 1);

        // Untestable-fault proofs cache too (`none` payload).
        let mut fb = FunctionBuilder::new("deadvar", 8);
        let a = fb.param("a", 8);
        let x = fb.local("x", 8);
        fb.assign(x, Expr::var(a));
        fb.ret(Expr::var(a));
        let g = fb.build();
        let fault = BitFault {
            var: g.var_by_name("x").unwrap(),
            bit: 3,
            stuck_at: true,
        };
        let noop = telemetry::noop();
        for _ in 0..2 {
            let verdict = sat_fault_tpg_cached(&g, fault, &noop, &cache).unwrap();
            assert_eq!(verdict, None);
        }
        assert_eq!(cache.stats().hits, 2);

        // A cached run equals the uncached reference wholesale.
        let tb = Testbench {
            vectors: vec![vec![0]],
        };
        let reference = complete_faults_with_sat(&f, &tb).expect("works");
        let cached = complete_faults_with_sat_cached(&f, &tb, exec::ExecMode::Sequential, &cache)
            .expect("works");
        assert_eq!(cached.0.vectors, reference.0.vectors);
        assert_eq!(cached.1, reference.1);
    }

    #[test]
    fn model_payloads_round_trip() {
        for model in [None, Some(vec![]), Some(vec![0]), Some(vec![3, u64::MAX])] {
            let encoded = encode_model(model.as_deref());
            assert_eq!(decode_model(&encoded), Some(model));
        }
        assert_eq!(decode_model("m:x"), None);
        assert_eq!(decode_model(""), None);
    }

    /// Helper: the `i`-th condition id of a function.
    fn cond_of(func: &Function, i: usize) -> CondId {
        let mut ids = Vec::new();
        func.visit_stmts(&mut |s| match s {
            Stmt::If { cond_id, .. } | Stmt::While { cond_id, .. } => ids.push(*cond_id),
            _ => {}
        });
        ids[i]
    }
}
