//! Content-addressing of model-checking obligations.
//!
//! An obligation is `(engine, netlist, property, parameters)`. The
//! fingerprint hashes the netlist *as the engines see it*: one time frame
//! is unrolled with free state (`InitMode::Free`), so the full
//! transition-relation and output logic appears in the CNF instead of
//! being constant-folded against reset values, and the frame's interface
//! literal vectors (inputs, state, outputs, next-state, property roots)
//! are mixed in alongside the canonicalised clauses. The interface
//! literals matter: a PCC mutant whose stuck bit simplifies to a constant
//! can leave the clause set unchanged while rewiring an output to the
//! constant literal — the literal vectors are where that difference
//! lives. Two netlists that agree on all of this have identical frame-0
//! behaviour and, the transition function being the same every frame,
//! identical behaviour at every depth — so sharing a cache entry between
//! them is exact, not heuristic.

use crate::prop::Property;
use crate::unrolling::{InitMode, Unroller};
use crate::Verdict;
use hdl::Rtl;
use sat::Lit;

/// Fingerprints one `(engine, rtl, property, params)` obligation.
///
/// `engine` distinguishes entry points with different verdict encodings
/// (`"bmc"`, `"induction"`, `"reach"`, `"pcc.fails_on"`); `params` carries
/// the engine's numeric knobs (bounds, k). Reset values participate even
/// though the frame is unrolled state-free, so designs differing only in
/// reset state never share an entry.
pub fn fingerprint(
    engine: &str,
    rtl: &Rtl,
    property: &Property,
    params: &[u64],
) -> cache::Fingerprint {
    let mut unroller = Unroller::new(rtl, InitMode::Free);
    unroller.ensure_frames(0);

    // Property structure enters through its compiled frame-0 roots (the
    // name is deliberately excluded: renaming a property must not split
    // the cache entry). Response windows are structural too.
    let (roots, window): (Vec<Lit>, u64) = match property {
        Property::Invariant { expr, .. } => (vec![unroller.compile_expr(expr, 0)], 0),
        Property::Response {
            trigger,
            response,
            within,
            ..
        } => (
            vec![
                unroller.compile_expr(trigger, 0),
                unroller.compile_expr(response, 0),
            ],
            u64::from(*within),
        ),
    };

    let frame = &unroller.frames[0];
    let iface: Vec<Lit> = frame
        .input_lits
        .iter()
        .chain(frame.state_lits.iter())
        .chain(frame.next_state.iter())
        .chain(frame.outputs.iter().map(|(_, bits)| bits))
        .flatten()
        .copied()
        .collect();
    let cnf = unroller.ctx.builder_mut().solver().export_cnf();

    cache::FingerprintBuilder::new(engine)
        .params(params)
        .param(window)
        .params(&rtl.reset_state())
        .lits(&iface)
        .lits(&roots)
        .cnf(&cnf)
        .finish()
}

/// The cache protocol every engine shares: fingerprint the obligation,
/// replay a decodable stored verdict, otherwise `run` the engine and store
/// its verdict. Budget-exhausted verdicts are never stored — they describe
/// the budget, not the obligation, and a retry with more effort may decide
/// them. An unbounded effort never exhausts, so every verdict it reaches
/// is stored. Hits and misses surface both on the cache's own
/// [`cache::CacheStats`] and as `cache.hits` / `cache.misses` counters; a
/// disabled cache ([`cache::noop()`]) skips even the fingerprint.
pub(crate) fn cached(
    engine: &str,
    rtl: &Rtl,
    property: &Property,
    params: &[u64],
    instrument: &telemetry::SharedInstrument,
    cache: &cache::ObligationCache,
    run: impl FnOnce() -> Verdict,
) -> Verdict {
    if !cache.is_enabled() {
        return run();
    }
    let fp = fingerprint(engine, rtl, property, params);
    if let Some(payload) = cache.lookup_tagged(engine, fp) {
        if let Some(verdict) = crate::cachefmt::decode_verdict(rtl, &payload) {
            instrument.counter_add("cache.hits", 1);
            return verdict;
        }
    }
    instrument.counter_add("cache.misses", 1);
    let verdict = run();
    if !verdict.is_budget_exhausted() {
        cache.insert_tagged(engine, fp, crate::cachefmt::encode_verdict(&verdict));
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::BoolExpr;
    use behav::BinOp;

    fn counter(modulus: u64) -> Rtl {
        let mut rtl = Rtl::new("modc");
        let q = rtl.reg("q", 3, 0);
        let one = rtl.constant(1, 3);
        let maxc = rtl.constant(modulus - 1, 3);
        let zero = rtl.constant(0, 3);
        let inc = rtl.binary(BinOp::Add, q, one);
        let at_max = rtl.binary(BinOp::Eq, q, maxc);
        let next = rtl.mux(at_max, zero, inc);
        rtl.set_next(q, next);
        rtl.output("q", q);
        rtl
    }

    #[test]
    fn fingerprints_are_reproducible() {
        let p = Property::invariant("lt5", BoolExpr::lt("q", 5));
        let a = fingerprint("bmc", &counter(5), &p, &[10]);
        let b = fingerprint("bmc", &counter(5), &p, &[10]);
        assert_eq!(a, b);
    }

    #[test]
    fn renaming_a_property_shares_the_entry() {
        let a = Property::invariant("lt5", BoolExpr::lt("q", 5));
        let b = Property::invariant("other_name", BoolExpr::lt("q", 5));
        let rtl = counter(5);
        assert_eq!(
            fingerprint("bmc", &rtl, &a, &[10]),
            fingerprint("bmc", &rtl, &b, &[10])
        );
    }

    #[test]
    fn distinct_obligations_separate() {
        let p = Property::invariant("lt5", BoolExpr::lt("q", 5));
        let q = Property::invariant("lt5", BoolExpr::lt("q", 4));
        let rtl = counter(5);
        let base = fingerprint("bmc", &rtl, &p, &[10]);
        assert_ne!(fingerprint("bmc", &rtl, &q, &[10]), base, "property");
        assert_ne!(fingerprint("bmc", &rtl, &p, &[11]), base, "bound");
        assert_ne!(fingerprint("reach", &rtl, &p, &[10]), base, "engine");
        assert_ne!(fingerprint("bmc", &counter(6), &p, &[10]), base, "netlist");
    }

    #[test]
    fn mutants_get_their_own_entries() {
        // Every stuck bit — including output bits that constant-fold —
        // must change the fingerprint, or PCC would reuse the fault-free
        // verdict for a mutant.
        let rtl = counter(5);
        let p = Property::invariant("lt5", BoolExpr::lt("q", 5));
        let base = fingerprint("pcc.fails_on", &rtl, &p, &[10]);
        let mut seen = std::collections::HashSet::new();
        seen.insert(base);
        for reg_bit in 0..3u32 {
            for stuck in [false, true] {
                let mut m = rtl.clone();
                let (r, next) = m.registers()[0];
                let w = m.width(next);
                let faulty = if stuck {
                    let mask = m.constant(1 << reg_bit, w);
                    m.binary(BinOp::Or, next, mask)
                } else {
                    let mask = m.constant(0b111 & !(1 << reg_bit), w);
                    m.binary(BinOp::And, next, mask)
                };
                m.set_next(r, faulty);
                assert!(
                    seen.insert(fingerprint("pcc.fails_on", &m, &p, &[10])),
                    "mutant reg bit {reg_bit} stuck_at {stuck} collided"
                );
            }
        }
    }
}
