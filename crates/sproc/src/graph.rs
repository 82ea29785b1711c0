//! Static analysis: the dependency graph (§3.2, Figure 4 step "Static
//! analysis").
//!
//! Built once when a procedure is registered. Captures, per operation, its
//! primary-key parents/children (pk-deps — the edges that constrain lock
//! reordering) and its value parents (v-deps — execution ordering only).
//! Validates that the procedure is well-formed: references point to earlier
//! output-producing ops and the combined graph is acyclic (it is by
//! construction when references point backwards, which validation enforces).

use crate::op::{Guard, Op};
use chiller_common::error::{ChillerError, Result};
use chiller_common::ids::OpId;

/// Precomputed dependency structure of a procedure.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// `pk_children[i]` = ops whose *key* depends on op i's output.
    pub pk_children: Vec<Vec<OpId>>,
    /// `pk_parents[i]` = ops whose output op i's *key* needs.
    pub pk_parents: Vec<Vec<OpId>>,
    /// `v_parents[i]` = ops whose output op i's *values* need.
    pub v_parents: Vec<Vec<OpId>>,
    /// A topological order of ops respecting pk-deps ∪ v-deps. Because
    /// validation requires references to point backwards, the natural order
    /// `0..n` is always topological; stored explicitly for clarity.
    pub topo: Vec<OpId>,
}

impl DepGraph {
    /// Build and validate the graph for `ops` (+ guard references).
    pub fn build(name: &str, ops: &[Op], guards: &[Guard]) -> Result<DepGraph> {
        let n = ops.len();
        let mut pk_children = vec![Vec::new(); n];
        let mut pk_parents = vec![Vec::new(); n];
        let mut v_parents = vec![Vec::new(); n];

        let check_ref = |referrer: usize, dep: OpId, what: &str| -> Result<()> {
            if dep.idx() >= n {
                return Err(ChillerError::InvalidProcedure(format!(
                    "{name}: op {referrer} {what}-references nonexistent op {dep}"
                )));
            }
            if dep.idx() >= referrer {
                return Err(ChillerError::InvalidProcedure(format!(
                    "{name}: op {referrer} {what}-references op {dep} that is not earlier \
                     (forward references would make the graph cyclic)"
                )));
            }
            if !ops[dep.idx()].kind.produces_output() {
                return Err(ChillerError::InvalidProcedure(format!(
                    "{name}: op {referrer} {what}-references op {dep}, which produces no output"
                )));
            }
            Ok(())
        };

        for (i, op) in ops.iter().enumerate() {
            if op.id != OpId(i as u16) {
                return Err(ChillerError::InvalidProcedure(format!(
                    "{name}: op at index {i} has id {}",
                    op.id
                )));
            }
            for &dep in op.key.pk_deps() {
                check_ref(i, dep, "pk")?;
                pk_children[dep.idx()].push(op.id);
                pk_parents[i].push(dep);
            }
            for &dep in &op.value_deps {
                check_ref(i, dep, "value")?;
                v_parents[i].push(dep);
            }
        }

        for (gi, g) in guards.iter().enumerate() {
            for &dep in &g.deps {
                if dep.idx() >= n || !ops[dep.idx()].kind.produces_output() {
                    return Err(ChillerError::InvalidProcedure(format!(
                        "{name}: guard {gi} ({}) references invalid op {dep}",
                        g.label
                    )));
                }
            }
        }

        Ok(DepGraph {
            pk_children,
            pk_parents,
            v_parents,
            topo: (0..n as u16).map(OpId).collect(),
        })
    }

    /// Transitive pk-descendants of `op` (not including `op` itself).
    pub fn pk_descendants(&self, op: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        let mut stack = vec![op];
        let mut seen = vec![false; self.pk_children.len()];
        while let Some(cur) = stack.pop() {
            for &c in &self.pk_children[cur.idx()] {
                if !seen[c.idx()] {
                    seen[c.idx()] = true;
                    out.push(c);
                    stack.push(c);
                }
            }
        }
        out.sort();
        out
    }

    /// Whether op `a` is a pk-ancestor of op `b`.
    pub fn is_pk_ancestor(&self, a: OpId, b: OpId) -> bool {
        self.pk_descendants(a).contains(&b)
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.pk_children.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pk_children.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{KeyExpr, OpKind};
    use chiller_common::ids::TableId;
    use chiller_common::value::Row;
    use std::sync::Arc;

    fn read_op(id: u16, key: KeyExpr) -> Op {
        Op {
            id: OpId(id),
            table: TableId(1),
            key,
            kind: OpKind::Read { for_update: false },
            value_deps: vec![],
            home_hint: None,
            label: "read",
        }
    }

    fn computed_key(deps: Vec<OpId>) -> KeyExpr {
        KeyExpr::Computed {
            deps,
            f: Arc::new(|_| 0),
        }
    }

    #[test]
    fn builds_pk_edges() {
        let ops = vec![
            read_op(0, KeyExpr::Param(0)),
            read_op(1, computed_key(vec![OpId(0)])),
            read_op(2, computed_key(vec![OpId(0), OpId(1)])),
        ];
        let g = DepGraph::build("t", &ops, &[]).unwrap();
        assert_eq!(g.pk_children[0], vec![OpId(1), OpId(2)]);
        assert_eq!(g.pk_parents[2], vec![OpId(0), OpId(1)]);
        assert_eq!(g.pk_descendants(OpId(0)), vec![OpId(1), OpId(2)]);
        assert!(g.is_pk_ancestor(OpId(0), OpId(2)));
        assert!(!g.is_pk_ancestor(OpId(1), OpId(0)));
    }

    #[test]
    fn v_deps_tracked_separately() {
        let mut op1 = read_op(1, KeyExpr::Param(1));
        op1.value_deps = vec![OpId(0)];
        let ops = vec![read_op(0, KeyExpr::Param(0)), op1];
        let g = DepGraph::build("t", &ops, &[]).unwrap();
        assert!(g.pk_children[0].is_empty(), "v-dep must not be a pk edge");
        assert_eq!(g.v_parents[1], vec![OpId(0)]);
    }

    #[test]
    fn rejects_forward_reference() {
        let ops = vec![
            read_op(0, computed_key(vec![OpId(1)])),
            read_op(1, KeyExpr::Param(0)),
        ];
        let err = DepGraph::build("t", &ops, &[]).unwrap_err();
        assert!(matches!(err, ChillerError::InvalidProcedure(_)));
    }

    #[test]
    fn rejects_self_reference() {
        let ops = vec![read_op(0, computed_key(vec![OpId(0)]))];
        assert!(DepGraph::build("t", &ops, &[]).is_err());
    }

    #[test]
    fn rejects_dep_on_non_output_op() {
        let insert = Op {
            id: OpId(0),
            table: TableId(1),
            key: KeyExpr::Param(0),
            kind: OpKind::Insert(Arc::new(|_| Row::from([]))),
            value_deps: vec![],
            home_hint: None,
            label: "ins",
        };
        let ops = vec![insert, read_op(1, computed_key(vec![OpId(0)]))];
        assert!(DepGraph::build("t", &ops, &[]).is_err());
    }

    #[test]
    fn rejects_misnumbered_ids() {
        let ops = vec![read_op(5, KeyExpr::Param(0))];
        assert!(DepGraph::build("t", &ops, &[]).is_err());
    }

    #[test]
    fn guard_refs_validated() {
        let ops = vec![read_op(0, KeyExpr::Param(0))];
        let bad_guard = Guard {
            deps: vec![OpId(3)],
            check: Arc::new(|_| Ok(())),
            label: "g",
        };
        assert!(DepGraph::build("t", &ops, &[bad_guard]).is_err());
        let ok_guard = Guard {
            deps: vec![OpId(0)],
            check: Arc::new(|_| Ok(())),
            label: "g",
        };
        assert!(DepGraph::build("t", &ops, &[ok_guard]).is_ok());
    }
}
