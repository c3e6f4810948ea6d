//! Candidate enumeration: the cross product of speculation sites, commit
//! depths, recovery buffers, and scheduler policies.
//!
//! A [`SpecConfig`] is a *self-contained* description of one point in the
//! design space: it carries everything [`elastic_core::transform::speculate`]
//! needs, so a configuration returned by the explorer can be re-applied by
//! the caller (and by the soundness harness) without consulting the explorer
//! again. Enumeration order is canonical — sites sorted by multiplexor name,
//! then depth, then scheduler, then recovery placement — so the grid itself
//! never depends on hash-map iteration or netlist id allocation order.

use elastic_analysis::cost::CostModel;
use elastic_analysis::critical;
use elastic_core::kind::{BufferSpec, SchedulerKind};
use elastic_core::transform::{speculate, SpeculateOptions, SpeculationReport};
use elastic_core::{Netlist, NodeId, NodeKind, Result as CoreResult};

use crate::ExploreOptions;

/// Starvation override pinned into every candidate: the shared module grants
/// a user that has waited this many cycles, whatever the scheduler predicts.
const STARVATION_LIMIT: Option<u32> = Some(8);

/// What kind of speculation site a multiplexor is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SiteKind {
    /// The multiplexor's select input closes a cycle through its output —
    /// the paper's Section 4 target. The commit stage is skipped (the loop's
    /// elastic buffer already decouples the speculation), so commit depth is
    /// not a free axis here.
    SelectLoop,
    /// A feed-forward multiplexor: speculation is forced with
    /// `allow_acyclic` and soundness comes from the in-order commit stage,
    /// whose per-lane depth *is* a free axis.
    FeedForward,
}

impl SiteKind {
    /// Short label used in candidate descriptions.
    pub fn label(self) -> &'static str {
        match self {
            SiteKind::SelectLoop => "select-loop",
            SiteKind::FeedForward => "feed-forward",
        }
    }
}

/// One point of the candidate grid: a single speculation applied to a single
/// multiplexor with fully pinned options.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecConfig {
    /// The multiplexor to speculate.
    pub mux: NodeId,
    /// Its instance name (stable across the clone-and-transform cycle, and
    /// the key used for canonical ordering).
    pub mux_name: String,
    /// Whether the site is a select loop or a feed-forward mux.
    pub site: SiteKind,
    /// Scheduler policy installed in the shared module.
    pub scheduler: SchedulerKind,
    /// Per-lane commit-stage depth (fixed at 1 on select loops, where the
    /// stage is skipped anyway).
    pub commit_depth: u32,
    /// Recovery buffer between the shared module and the multiplexor.
    pub recovery_buffer: Option<BufferSpec>,
    /// Starvation override for the shared module controller.
    pub starvation_limit: Option<u32>,
}

impl SpecConfig {
    /// The [`SpeculateOptions`] this configuration pins.
    pub fn speculate_options(&self) -> SpeculateOptions {
        SpeculateOptions {
            scheduler: self.scheduler.clone(),
            recovery_buffer: self.recovery_buffer,
            starvation_limit: self.starvation_limit,
            allow_acyclic: self.site == SiteKind::FeedForward,
            commit_stage: true,
            commit_depth: self.commit_depth,
        }
    }

    /// Applies this configuration to `netlist` (atomically, like
    /// [`speculate`] itself).
    ///
    /// # Errors
    ///
    /// Propagates the transform's precondition and structural failures; the
    /// netlist is untouched on error.
    pub fn apply(&self, netlist: &mut Netlist) -> CoreResult<SpeculationReport> {
        speculate(netlist, self.mux, &self.speculate_options())
    }

    /// Short label of the recovery-buffer axis.
    fn recovery_label(&self) -> String {
        match &self.recovery_buffer {
            None => "direct".to_string(),
            Some(spec) => format!(
                "eb(Lf{},Lb{},C{})",
                spec.forward_latency, spec.backward_latency, spec.capacity
            ),
        }
    }

    /// Canonical human-readable description, also used as the sort key for
    /// every candidate list the explorer returns.
    pub fn label(&self) -> String {
        format!(
            "{} [{}] depth={} scheduler={:?} recovery={}",
            self.mux_name,
            self.site.label(),
            self.commit_depth,
            self.scheduler,
            self.recovery_label()
        )
    }

    /// Canonical ordering key: mux name, site, depth, scheduler, recovery.
    pub fn rank_key(&self) -> (String, u8, u32, String, String) {
        (
            self.mux_name.clone(),
            self.site as u8,
            self.commit_depth,
            format!("{:?}", self.scheduler),
            self.recovery_label(),
        )
    }
}

/// Enumerates the candidate grid of `netlist` under `options`.
///
/// Sites come from two detectors: [`critical::speculation_candidates`]
/// (multiplexors whose select closes a cycle) and a sweep over the remaining
/// live multiplexors (feed-forward sites). Multiplexors the transform
/// will reject — already-speculated designs, rendezvous conflicts — are
/// *kept in the grid*: the explorer surfaces them as skipped candidates with
/// the transform's own reason, never as silent holes.
pub fn enumerate_candidates(netlist: &Netlist, options: &ExploreOptions) -> Vec<SpecConfig> {
    let model = CostModel::default();
    let loop_sites: Vec<NodeId> =
        critical::speculation_candidates(netlist, &model).iter().map(|c| c.mux).collect();

    let mut sites: Vec<(NodeId, String, SiteKind)> = Vec::new();
    for node in netlist.live_nodes() {
        if !matches!(node.kind, NodeKind::Mux(_)) {
            continue;
        }
        let site = if loop_sites.contains(&node.id) {
            SiteKind::SelectLoop
        } else {
            SiteKind::FeedForward
        };
        sites.push((node.id, node.name.clone(), site));
    }
    sites.sort_by(|a, b| a.1.cmp(&b.1));

    let mut grid = Vec::new();
    for (mux, mux_name, site) in sites {
        // On a select loop the commit stage is skipped entirely, so depth is
        // not a free axis: enumerating it would produce byte-identical
        // netlists under different labels.
        let depths: &[u32] = match site {
            SiteKind::SelectLoop => &[1],
            SiteKind::FeedForward => &options.depths,
        };
        for &commit_depth in depths {
            for scheduler in &options.schedulers {
                for recovery_buffer in &options.recovery {
                    grid.push(SpecConfig {
                        mux,
                        mux_name: mux_name.clone(),
                        site,
                        scheduler: scheduler.clone(),
                        commit_depth,
                        recovery_buffer: *recovery_buffer,
                        starvation_limit: STARVATION_LIMIT,
                    });
                }
            }
        }
    }
    grid.sort_by_key(SpecConfig::rank_key);
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::library::{fig1a, Fig1Config};

    #[test]
    fn fig1a_enumerates_its_select_loop_once_per_policy_axis() {
        let handles = fig1a(&Fig1Config::default());
        let options = ExploreOptions::default();
        let grid = enumerate_candidates(&handles.netlist, &options);
        // One select-loop site, depth pinned to 1: schedulers × recovery.
        let expected = options.schedulers.len() * options.recovery.len();
        assert_eq!(grid.len(), expected);
        assert!(grid.iter().all(|c| c.site == SiteKind::SelectLoop && c.commit_depth == 1));
        assert!(grid.iter().all(|c| c.mux == handles.mux));
    }

    #[test]
    fn the_grid_is_canonically_sorted() {
        let handles = fig1a(&Fig1Config::default());
        let grid = enumerate_candidates(&handles.netlist, &ExploreOptions::default());
        let mut keys: Vec<_> = grid.iter().map(SpecConfig::rank_key).collect();
        let sorted = {
            let mut s = keys.clone();
            s.sort();
            s
        };
        assert_eq!(keys, sorted);
        keys.dedup();
        assert_eq!(keys.len(), grid.len(), "no duplicate candidates");
    }

    #[test]
    fn configs_reapply_to_fresh_clones() {
        let handles = fig1a(&Fig1Config::default());
        let grid = enumerate_candidates(&handles.netlist, &ExploreOptions::default());
        for config in &grid {
            let mut clone = handles.netlist.clone();
            let report = config.apply(&mut clone).expect("fig1a candidates apply cleanly");
            assert_eq!(report.mux, config.mux);
            clone.validate().expect("transformed netlist validates");
        }
    }
}
