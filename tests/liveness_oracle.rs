//! SIR liveness on real compiler output equals the reference fixpoint.
//!
//! Every function of every `Compiled::module` the 14 mibench workloads
//! produce under the 8 suite configs (squeezed modules with their regions
//! and handlers where the config keeps them, expanded modules otherwise)
//! is checked block by block: the bitset worklist's live-in and live-out
//! views equal the original `HashSet` fixpoint as sets, and iterate in
//! ascending value order.

#[path = "../crates/sir/tests/support/reference_liveness.rs"]
mod reference_liveness;

use bitspec::{build_matrix, stages};
use mibench::{names, workload, Input};
use reference_liveness::assert_matches_reference;
use std::collections::HashSet;
use std::sync::Arc;

#[test]
fn liveness_matches_reference_on_every_suite_function() {
    stages::set_codegen_workers(1);
    let cfgs = bench::suite_configs();
    let mut seen: HashSet<*const sir::Module> = HashSet::new();
    let (mut funcs, mut regions) = (0usize, 0usize);
    for name in names() {
        let w = workload(name, Input::Large);
        for (i, r) in build_matrix(&w, &cfgs, 2).into_iter().enumerate() {
            let c = r.unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
            if !seen.insert(Arc::as_ptr(&c.module)) {
                continue;
            }
            for f in &c.module.funcs {
                assert_matches_reference(f, &format!("{name} under suite config {i}"));
                funcs += 1;
                regions += f.regions.len();
            }
        }
    }
    // The sweep must include squeezed code, or the handler edges go untested.
    assert!(
        funcs > 100 && regions > 1000,
        "{funcs} functions, {regions} regions"
    );
}
