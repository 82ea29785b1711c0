//! Run-time execution state for one transaction instance.
//!
//! Carries the input parameters and the output row of every completed
//! operation. Key functions, apply functions and guards all read from this
//! state, which is what lets the engines execute operations in any legal
//! order (outer region first, inner region later, possibly on a different
//! node after being shipped in an RPC).

use chiller_common::value::{Row, Value};

/// Parameters + per-op outputs of a transaction in flight.
#[derive(Debug, Clone, Default)]
pub struct ExecState {
    params: Vec<Value>,
    outputs: Vec<Option<Row>>,
}

impl ExecState {
    pub fn new(params: Vec<Value>, num_ops: usize) -> Self {
        ExecState {
            params,
            outputs: vec![None; num_ops],
        }
    }

    /// Re-arm for a new transaction instance, keeping the output buffer's
    /// capacity (an engine slot reuses one state across its attempts).
    pub fn reset(&mut self, params: Vec<Value>, num_ops: usize) {
        self.params = params;
        self.outputs.clear();
        self.outputs.resize(num_ops, None);
    }

    /// Drop every output (and the rows they share) without freeing the
    /// buffer.
    pub fn clear_outputs(&mut self) {
        self.outputs.clear();
    }

    /// Hand the parameters back — a retry re-submits the same input —
    /// leaving this state without any.
    pub fn take_params(&mut self) -> Vec<Value> {
        std::mem::take(&mut self.params)
    }

    pub fn params(&self) -> &[Value] {
        &self.params
    }

    /// Parameter as u64 key material.
    #[inline]
    pub fn param_u64(&self, i: usize) -> u64 {
        self.params[i].as_i64() as u64
    }

    #[inline]
    pub fn param_i64(&self, i: usize) -> i64 {
        self.params[i].as_i64()
    }

    #[inline]
    pub fn param_f64(&self, i: usize) -> f64 {
        self.params[i].as_f64()
    }

    /// Output row of op `id`, if it has executed.
    #[inline]
    pub fn output(&self, id: chiller_common::ids::OpId) -> Option<&Row> {
        self.outputs.get(id.idx()).and_then(|o| o.as_ref())
    }

    /// Output row of op `id`; panics if not yet executed — dependency
    /// violations are engine bugs, not run-time conditions.
    #[inline]
    pub fn output_req(&self, id: chiller_common::ids::OpId) -> &Row {
        self.output(id)
            .unwrap_or_else(|| panic!("output of {id} not available"))
    }

    /// Record the output of op `id`.
    pub fn set_output(&mut self, id: chiller_common::ids::OpId, row: Row) {
        self.outputs[id.idx()] = Some(row);
    }

    /// Merge outputs produced elsewhere (the inner host returns outputs the
    /// coordinator needs for outer phase-2 updates, and vice versa the
    /// coordinator ships outer outputs to the inner host in the RPC).
    pub fn absorb(&mut self, other: &ExecState) {
        for (mine, theirs) in self.outputs.iter_mut().zip(&other.outputs) {
            if mine.is_none() {
                mine.clone_from(theirs);
            }
        }
    }

    /// Number of op output slots.
    pub fn num_ops(&self) -> usize {
        self.outputs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::OpId;

    #[test]
    fn params_accessors() {
        let st = ExecState::new(vec![Value::I64(7), Value::F64(1.5)], 2);
        assert_eq!(st.param_u64(0), 7);
        assert_eq!(st.param_i64(0), 7);
        assert_eq!(st.param_f64(1), 1.5);
    }

    #[test]
    fn outputs_roundtrip() {
        let mut st = ExecState::new(vec![], 3);
        assert!(st.output(OpId(1)).is_none());
        st.set_output(OpId(1), Row::from([Value::I64(9)]));
        assert_eq!(st.output_req(OpId(1))[0].as_i64(), 9);
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn missing_output_panics_on_req() {
        let st = ExecState::new(vec![], 1);
        st.output_req(OpId(0));
    }

    #[test]
    fn reset_rearms_for_a_new_instance() {
        let mut st = ExecState::new(vec![Value::I64(1)], 2);
        st.set_output(OpId(1), Row::from([Value::I64(9)]));
        assert_eq!(st.take_params(), vec![Value::I64(1)]);
        assert!(st.params().is_empty());
        st.reset(vec![Value::I64(5)], 3);
        assert_eq!(st.param_i64(0), 5);
        assert_eq!(st.num_ops(), 3);
        assert!((0..3).all(|i| st.output(OpId(i)).is_none()));
    }

    #[test]
    fn absorb_fills_gaps_without_overwriting() {
        let mut a = ExecState::new(vec![], 2);
        a.set_output(OpId(0), Row::from([Value::I64(1)]));
        let mut b = ExecState::new(vec![], 2);
        b.set_output(OpId(0), Row::from([Value::I64(99)]));
        b.set_output(OpId(1), Row::from([Value::I64(2)]));
        a.absorb(&b);
        assert_eq!(a.output_req(OpId(0))[0].as_i64(), 1, "must not overwrite");
        assert_eq!(a.output_req(OpId(1))[0].as_i64(), 2, "must fill gap");
    }
}
