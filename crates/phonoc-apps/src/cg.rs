//! Communication graphs (paper Definition 1).
//!
//! A [`CommunicationGraph`] `G(C, E)` is a directed graph whose vertices
//! are application tasks and whose edges carry the traffic between them.
//! Edges are annotated with a bandwidth in MB/s; the worst-case IL/SNR
//! objectives of the paper do not weight by bandwidth (every
//! communication must meet the power budget), but the annotation is kept
//! for bandwidth-aware extensions and for documentation fidelity with the
//! original benchmark suites.
//!
//! Graphs are built immutably via [`CgBuilder`], but a built graph can
//! be *mutated in place* for request-stream workloads
//! ([`CommunicationGraph::update_bandwidths`],
//! [`CommunicationGraph::add_edge`],
//! [`CommunicationGraph::remove_edge`]) under the same validation rules
//! the builder enforces. Mutations preserve the positional order of the
//! surviving edges, which is the contract the evaluator's per-edge
//! caches index by.
//!
//! # Examples
//!
//! ```
//! use phonoc_apps::cg::CgBuilder;
//!
//! let cg = CgBuilder::new("tiny-pipeline")
//!     .task("producer")
//!     .task("filter")
//!     .task("consumer")
//!     .edge("producer", "filter", 64.0)
//!     .edge("filter", "consumer", 32.0)
//!     .build()
//!     .unwrap();
//! assert_eq!(cg.task_count(), 3);
//! assert_eq!(cg.edge_count(), 2);
//! ```

use std::collections::HashMap;
use std::fmt;

/// Index of a task within a communication graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A directed communication between two tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgEdge {
    /// Producing task.
    pub src: TaskId,
    /// Consuming task.
    pub dst: TaskId,
    /// Average bandwidth in MB/s (annotation only; see module docs).
    pub bandwidth: f64,
}

/// Errors from [`CgBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CgError {
    /// An edge referenced a task name that was never declared.
    UnknownTask {
        /// The missing name.
        name: String,
    },
    /// A task name was declared twice.
    DuplicateTask {
        /// The duplicated name.
        name: String,
    },
    /// An edge connects a task to itself.
    SelfLoop {
        /// The task with the self-loop.
        name: String,
    },
    /// The same directed edge was declared twice.
    DuplicateEdge {
        /// Source task name.
        src: String,
        /// Destination task name.
        dst: String,
    },
    /// An edge carries a non-positive or non-finite bandwidth.
    BadBandwidth {
        /// Source task name.
        src: String,
        /// Destination task name.
        dst: String,
    },
    /// A mutation referenced a directed edge the graph does not contain.
    MissingEdge {
        /// Source task name.
        src: String,
        /// Destination task name.
        dst: String,
    },
}

impl fmt::Display for CgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CgError::UnknownTask { name } => write!(f, "unknown task `{name}`"),
            CgError::DuplicateTask { name } => write!(f, "task `{name}` declared twice"),
            CgError::SelfLoop { name } => write!(f, "self-loop on task `{name}`"),
            CgError::DuplicateEdge { src, dst } => {
                write!(f, "edge `{src}`→`{dst}` declared twice")
            }
            CgError::BadBandwidth { src, dst } => {
                write!(f, "edge `{src}`→`{dst}` has invalid bandwidth")
            }
            CgError::MissingEdge { src, dst } => {
                write!(f, "edge `{src}`→`{dst}` does not exist")
            }
        }
    }
}

impl std::error::Error for CgError {}

/// A validated communication graph (paper Definition 1).
#[derive(Debug, Clone, PartialEq)]
pub struct CommunicationGraph {
    name: String,
    tasks: Vec<String>,
    edges: Vec<CgEdge>,
}

impl CommunicationGraph {
    /// The application name (e.g. `"VOPD"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks `size(C)`.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of directed edges `size(E)`.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All edges.
    #[must_use]
    pub fn edges(&self) -> &[CgEdge] {
        &self.edges
    }

    /// Iterator over task ids.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len()).map(TaskId)
    }

    /// The name of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[must_use]
    pub fn task_name(&self, task: TaskId) -> &str {
        &self.tasks[task.0]
    }

    /// Looks a task up by name.
    #[must_use]
    pub fn task_id(&self, name: &str) -> Option<TaskId> {
        self.tasks.iter().position(|t| t == name).map(TaskId)
    }

    /// Out-degree of `task`.
    #[must_use]
    pub fn out_degree(&self, task: TaskId) -> usize {
        self.edges.iter().filter(|e| e.src == task).count()
    }

    /// In-degree of `task`.
    #[must_use]
    pub fn in_degree(&self, task: TaskId) -> usize {
        self.edges.iter().filter(|e| e.dst == task).count()
    }

    /// Sum of all edge bandwidths (MB/s).
    #[must_use]
    pub fn total_bandwidth(&self) -> f64 {
        self.edges.iter().map(|e| e.bandwidth).sum()
    }

    /// Whether the graph is weakly connected (every task reachable from
    /// task 0 ignoring edge direction). The benchmark graphs all are;
    /// synthetic generators may produce disconnected graphs, which still
    /// map fine but are usually a sign of a misconfigured generator.
    #[must_use]
    pub fn is_weakly_connected(&self) -> bool {
        if self.tasks.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.tasks.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(t) = stack.pop() {
            for e in &self.edges {
                let (a, b) = (e.src.0, e.dst.0);
                if a == t && !seen[b] {
                    seen[b] = true;
                    stack.push(b);
                }
                if b == t && !seen[a] {
                    seen[a] = true;
                    stack.push(a);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// GraphViz DOT rendering, for documentation and debugging.
    #[must_use]
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.name);
        for (i, t) in self.tasks.iter().enumerate() {
            let _ = writeln!(out, "  c{i} [label=\"{t}\"];");
        }
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  c{} -> c{} [label=\"{}\"];",
                e.src.0, e.dst.0, e.bandwidth
            );
        }
        out.push_str("}\n");
        out
    }

    /// Index of the directed edge `src → dst` in [`Self::edges`] order.
    #[must_use]
    pub fn edge_index(&self, src: TaskId, dst: TaskId) -> Option<usize> {
        self.edges.iter().position(|e| e.src == src && e.dst == dst)
    }

    fn check_task(&self, task: TaskId) -> Result<(), CgError> {
        if task.0 < self.tasks.len() {
            Ok(())
        } else {
            Err(CgError::UnknownTask {
                name: task.to_string(),
            })
        }
    }

    /// Re-annotates existing edges with new bandwidths, all-or-nothing:
    /// every update is validated (edges must exist, bandwidths must be
    /// finite and positive) before any is applied, so a failed batch
    /// leaves the graph untouched. Edge *order* never changes — the
    /// evaluator indexes edges positionally, and a weight update is
    /// exactly the "traffic phase transition" the dynamic-workload
    /// scenarios model.
    ///
    /// # Errors
    ///
    /// [`CgError::UnknownTask`] for an out-of-range task id,
    /// [`CgError::MissingEdge`] if `src → dst` is not present, or
    /// [`CgError::BadBandwidth`] for a non-positive/non-finite value.
    pub fn update_bandwidths(&mut self, updates: &[(TaskId, TaskId, f64)]) -> Result<(), CgError> {
        let mut indices = Vec::with_capacity(updates.len());
        for &(src, dst, bw) in updates {
            self.check_task(src)?;
            self.check_task(dst)?;
            let idx = self
                .edge_index(src, dst)
                .ok_or_else(|| CgError::MissingEdge {
                    src: self.task_name(src).to_string(),
                    dst: self.task_name(dst).to_string(),
                })?;
            if !(bw.is_finite() && bw > 0.0) {
                return Err(CgError::BadBandwidth {
                    src: self.task_name(src).to_string(),
                    dst: self.task_name(dst).to_string(),
                });
            }
            indices.push((idx, bw));
        }
        for (idx, bw) in indices {
            self.edges[idx].bandwidth = bw;
        }
        Ok(())
    }

    /// Appends a new directed edge (validated exactly like
    /// [`CgBuilder::build`]) and returns its index — always
    /// `edge_count() - 1`, so positional edge caches can extend rather
    /// than rebuild.
    ///
    /// # Errors
    ///
    /// [`CgError::UnknownTask`], [`CgError::SelfLoop`],
    /// [`CgError::DuplicateEdge`] or [`CgError::BadBandwidth`], mirroring
    /// the builder's rules.
    pub fn add_edge(&mut self, src: TaskId, dst: TaskId, bandwidth: f64) -> Result<usize, CgError> {
        self.check_task(src)?;
        self.check_task(dst)?;
        if src == dst {
            return Err(CgError::SelfLoop {
                name: self.task_name(src).to_string(),
            });
        }
        if self.edge_index(src, dst).is_some() {
            return Err(CgError::DuplicateEdge {
                src: self.task_name(src).to_string(),
                dst: self.task_name(dst).to_string(),
            });
        }
        if !(bandwidth.is_finite() && bandwidth > 0.0) {
            return Err(CgError::BadBandwidth {
                src: self.task_name(src).to_string(),
                dst: self.task_name(dst).to_string(),
            });
        }
        self.edges.push(CgEdge {
            src,
            dst,
            bandwidth,
        });
        Ok(self.edges.len() - 1)
    }

    /// Removes the directed edge `src → dst`, returning the index it
    /// occupied. Later edges shift down by one (`Vec::remove`), keeping
    /// the remaining relative order — positional edge caches can mirror
    /// the same removal instead of rebuilding.
    ///
    /// # Errors
    ///
    /// [`CgError::UnknownTask`] or [`CgError::MissingEdge`].
    pub fn remove_edge(&mut self, src: TaskId, dst: TaskId) -> Result<usize, CgError> {
        self.check_task(src)?;
        self.check_task(dst)?;
        let idx = self
            .edge_index(src, dst)
            .ok_or_else(|| CgError::MissingEdge {
                src: self.task_name(src).to_string(),
                dst: self.task_name(dst).to_string(),
            })?;
        self.edges.remove(idx);
        Ok(idx)
    }
}

/// Builder for [`CommunicationGraph`] ([C-BUILDER], consuming style so
/// benchmark definitions read as single expressions).
#[derive(Debug, Clone)]
pub struct CgBuilder {
    name: String,
    tasks: Vec<String>,
    edges: Vec<(String, String, f64)>,
}

impl CgBuilder {
    /// Starts an empty graph named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        CgBuilder {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Declares a task.
    #[must_use]
    pub fn task(mut self, name: impl Into<String>) -> Self {
        self.tasks.push(name.into());
        self
    }

    /// Declares several tasks at once.
    #[must_use]
    pub fn tasks<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.tasks.extend(names.into_iter().map(Into::into));
        self
    }

    /// Declares a directed edge with a bandwidth annotation (MB/s).
    #[must_use]
    pub fn edge(mut self, src: impl Into<String>, dst: impl Into<String>, bandwidth: f64) -> Self {
        self.edges.push((src.into(), dst.into(), bandwidth));
        self
    }

    /// Validates and builds the graph.
    ///
    /// # Errors
    ///
    /// Returns a [`CgError`] for duplicate/unknown task names,
    /// self-loops, duplicate edges, or non-positive bandwidths.
    pub fn build(self) -> Result<CommunicationGraph, CgError> {
        let mut index: HashMap<&str, usize> = HashMap::new();
        for (i, t) in self.tasks.iter().enumerate() {
            if index.insert(t.as_str(), i).is_some() {
                return Err(CgError::DuplicateTask { name: t.clone() });
            }
        }
        let mut edges = Vec::with_capacity(self.edges.len());
        let mut seen: HashMap<(usize, usize), ()> = HashMap::new();
        for (src, dst, bw) in &self.edges {
            let &s = index
                .get(src.as_str())
                .ok_or_else(|| CgError::UnknownTask { name: src.clone() })?;
            let &d = index
                .get(dst.as_str())
                .ok_or_else(|| CgError::UnknownTask { name: dst.clone() })?;
            if s == d {
                return Err(CgError::SelfLoop { name: src.clone() });
            }
            if seen.insert((s, d), ()).is_some() {
                return Err(CgError::DuplicateEdge {
                    src: src.clone(),
                    dst: dst.clone(),
                });
            }
            if !(bw.is_finite() && *bw > 0.0) {
                return Err(CgError::BadBandwidth {
                    src: src.clone(),
                    dst: dst.clone(),
                });
            }
            edges.push(CgEdge {
                src: TaskId(s),
                dst: TaskId(d),
                bandwidth: *bw,
            });
        }
        Ok(CommunicationGraph {
            name: self.name,
            tasks: self.tasks,
            edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline3() -> CommunicationGraph {
        CgBuilder::new("p3")
            .tasks(["a", "b", "c"])
            .edge("a", "b", 10.0)
            .edge("b", "c", 20.0)
            .build()
            .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let cg = pipeline3();
        assert_eq!(cg.name(), "p3");
        assert_eq!(cg.task_count(), 3);
        assert_eq!(cg.edge_count(), 2);
        assert_eq!(cg.task_id("b"), Some(TaskId(1)));
        assert_eq!(cg.task_name(TaskId(2)), "c");
        assert_eq!(cg.task_id("zzz"), None);
        assert!((cg.total_bandwidth() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn degrees() {
        let cg = pipeline3();
        assert_eq!(cg.out_degree(TaskId(0)), 1);
        assert_eq!(cg.in_degree(TaskId(0)), 0);
        assert_eq!(cg.in_degree(TaskId(1)), 1);
        assert_eq!(cg.out_degree(TaskId(2)), 0);
    }

    #[test]
    fn connectivity() {
        let cg = pipeline3();
        assert!(cg.is_weakly_connected());
        let disconnected = CgBuilder::new("d")
            .tasks(["a", "b", "c", "d"])
            .edge("a", "b", 1.0)
            .edge("c", "d", 1.0)
            .build()
            .unwrap();
        assert!(!disconnected.is_weakly_connected());
    }

    #[test]
    fn dot_export_mentions_every_task_and_edge() {
        let dot = pipeline3().to_dot();
        assert!(dot.contains("digraph"));
        for t in ["a", "b", "c"] {
            assert!(dot.contains(t));
        }
        assert!(dot.contains("c0 -> c1"));
    }

    #[test]
    fn rejects_unknown_task() {
        let err = CgBuilder::new("x")
            .task("a")
            .edge("a", "ghost", 1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, CgError::UnknownTask { .. }));
    }

    #[test]
    fn rejects_duplicate_task() {
        let err = CgBuilder::new("x").task("a").task("a").build().unwrap_err();
        assert!(matches!(err, CgError::DuplicateTask { .. }));
    }

    #[test]
    fn rejects_self_loop() {
        let err = CgBuilder::new("x")
            .task("a")
            .edge("a", "a", 1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, CgError::SelfLoop { .. }));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let err = CgBuilder::new("x")
            .tasks(["a", "b"])
            .edge("a", "b", 1.0)
            .edge("a", "b", 2.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, CgError::DuplicateEdge { .. }));
    }

    #[test]
    fn rejects_bad_bandwidth() {
        for bw in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let err = CgBuilder::new("x")
                .tasks(["a", "b"])
                .edge("a", "b", bw)
                .build()
                .unwrap_err();
            assert!(matches!(err, CgError::BadBandwidth { .. }), "bw={bw}");
        }
    }

    #[test]
    fn reverse_edges_are_allowed() {
        // a→b and b→a are distinct communications (e.g. request/response).
        let cg = CgBuilder::new("x")
            .tasks(["a", "b"])
            .edge("a", "b", 1.0)
            .edge("b", "a", 1.0)
            .build()
            .unwrap();
        assert_eq!(cg.edge_count(), 2);
    }

    #[test]
    fn error_display() {
        let e = CgError::UnknownTask {
            name: "ghost".into(),
        };
        assert!(e.to_string().contains("ghost"));
        let e = CgError::MissingEdge {
            src: "a".into(),
            dst: "b".into(),
        };
        assert!(e.to_string().contains("does not exist"));
    }

    #[test]
    fn update_bandwidths_rewrites_in_place() {
        let mut cg = pipeline3();
        cg.update_bandwidths(&[(TaskId(0), TaskId(1), 99.0), (TaskId(1), TaskId(2), 1.0)])
            .unwrap();
        assert!((cg.edges()[0].bandwidth - 99.0).abs() < 1e-12);
        assert!((cg.edges()[1].bandwidth - 1.0).abs() < 1e-12);
        // Order and endpoints untouched.
        assert_eq!(cg.edges()[0].src, TaskId(0));
        assert_eq!(cg.edge_count(), 2);
    }

    #[test]
    fn update_bandwidths_is_all_or_nothing() {
        let mut cg = pipeline3();
        let err = cg
            .update_bandwidths(&[(TaskId(0), TaskId(1), 99.0), (TaskId(2), TaskId(0), 5.0)])
            .unwrap_err();
        assert!(matches!(err, CgError::MissingEdge { .. }));
        // The valid first update must not have been applied.
        assert!((cg.edges()[0].bandwidth - 10.0).abs() < 1e-12);
        let err = cg
            .update_bandwidths(&[(TaskId(0), TaskId(1), f64::NAN)])
            .unwrap_err();
        assert!(matches!(err, CgError::BadBandwidth { .. }));
        let err = cg
            .update_bandwidths(&[(TaskId(9), TaskId(1), 1.0)])
            .unwrap_err();
        assert!(matches!(err, CgError::UnknownTask { .. }));
    }

    #[test]
    fn add_edge_appends_and_validates() {
        let mut cg = pipeline3();
        let idx = cg.add_edge(TaskId(2), TaskId(0), 7.0).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(cg.edge_count(), 3);
        assert_eq!(cg.edge_index(TaskId(2), TaskId(0)), Some(2));
        assert!(matches!(
            cg.add_edge(TaskId(2), TaskId(0), 7.0).unwrap_err(),
            CgError::DuplicateEdge { .. }
        ));
        assert!(matches!(
            cg.add_edge(TaskId(1), TaskId(1), 7.0).unwrap_err(),
            CgError::SelfLoop { .. }
        ));
        assert!(matches!(
            cg.add_edge(TaskId(0), TaskId(2), 0.0).unwrap_err(),
            CgError::BadBandwidth { .. }
        ));
        assert!(matches!(
            cg.add_edge(TaskId(0), TaskId(9), 1.0).unwrap_err(),
            CgError::UnknownTask { .. }
        ));
    }

    #[test]
    fn remove_edge_preserves_remaining_order() {
        let mut cg = pipeline3();
        cg.add_edge(TaskId(2), TaskId(0), 7.0).unwrap();
        let idx = cg.remove_edge(TaskId(0), TaskId(1)).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(cg.edge_count(), 2);
        // The survivors keep their relative order, shifted down.
        assert_eq!(cg.edges()[0].src, TaskId(1));
        assert_eq!(cg.edges()[1].src, TaskId(2));
        assert!(matches!(
            cg.remove_edge(TaskId(0), TaskId(1)).unwrap_err(),
            CgError::MissingEdge { .. }
        ));
    }
}
