//! The correctness oracle: the reference interpreter on the
//! untransformed frontend module.
//!
//! The reference for a (program, input) pair is `interp::Interpreter`
//! (tree-walking engine) running the module `lang::compile` produces,
//! before the expander, profiler, squeezer, backend or simulator touch
//! it. It runs outside op timing and is memoized per pair.

use bitspec::Workload;
use std::collections::HashMap;

pub struct Oracle {
    modules: HashMap<String, sir::Module>,
    memo: HashMap<u64, Vec<u32>>,
}

impl Oracle {
    /// Compiles the untransformed module of every suite program.
    ///
    /// # Errors
    /// Names the first program the frontend rejects.
    pub fn new() -> Result<Oracle, String> {
        let mut modules = HashMap::new();
        for name in mibench::names() {
            let m = lang::compile(name, &mibench::source_of(name))
                .map_err(|e| format!("{name}: frontend rejected the source: {e}"))?;
            modules.insert(name.to_string(), m);
        }
        Ok(Oracle {
            modules,
            memo: HashMap::new(),
        })
    }

    /// Reference outputs of `w` on its evaluation inputs.
    ///
    /// # Errors
    /// An unknown program or a reference-interpreter fault.
    pub fn outputs(&mut self, w: &Workload) -> Result<&[u32], String> {
        let key = bitspec::fingerprint::workload_key(w);
        if !self.memo.contains_key(&key) {
            let m = self
                .modules
                .get(&w.name)
                .ok_or_else(|| format!("no reference module for `{}`", w.name))?;
            let mut i = interp::Interpreter::new(m);
            i.set_reference(true);
            for (g, data) in &w.inputs {
                i.install_global(g, data);
            }
            let r = i
                .run("main", &[])
                .map_err(|e| format!("{}: reference interpreter faulted: {e}", w.name))?;
            self.memo.insert(key, r.outputs);
        }
        Ok(&self.memo[&key])
    }
}
