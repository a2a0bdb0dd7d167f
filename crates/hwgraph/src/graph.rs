//! The Hierarchical Workflow graph (HW-graph) and its builder.
//!
//! A HW-graph represents the workflow of a targeted system (paper §4.1):
//! entity groups (Algorithm 1) arranged hierarchically by lifespan analysis
//! (Fig. 6/7), each group carrying its learned subroutines (Algorithm 2).
//! Groups are flagged *critical* (paper §6.3) when they hold multiple Intel
//! Keys or a key that repeats within a single session.

use crate::group::{group_entities, Grouping};
use crate::hierarchy::Hierarchy;
use crate::lifespan::{GroupRelations, Lifespan};
use crate::profile::ProfileSet;
use crate::subroutine::{split_instances_into, InstanceSplit, SignatureNumbers, SubroutineSet};
use extract::record::{number, Run};
use extract::{IntelKey, IntelMessage, SessionLog};
use serde::{Deserialize, Serialize};
use spell::KeyId;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// One session's rows routed to the entity groups their keys belong to: per
/// group present, its lifespan in the session and its rows of the log, in
/// order; groups are walked in ascending order.
///
/// Working arrays, not a result: [`GroupRows::fill`] overwrites them, and
/// whoever groups sessions keeps one and refills it — the end-of-session
/// checks one per thread, [`SessionPart::new`] one per thread too — so a
/// warm one allocates only to grow past the widest model and the longest
/// session it has grouped. Arrays indexed by group are reset through the
/// list of groups present, as the split's lists are through the lists
/// touched: a refill costs the session, not the model.
#[derive(Debug, Default)]
pub struct GroupRows {
    /// The groups present, ascending.
    present: Vec<usize>,
    /// Per group: `true` while it is in `present`.
    member: Vec<bool>,
    /// Per group present: its lifespan.
    spans: Vec<Lifespan>,
    /// Per group present: its run of `rows`.
    runs: Vec<Run>,
    /// Every present group's rows, group after group, in order within each.
    rows: Vec<u32>,
    /// `(group, row)` of every routing, in row order.
    routed: Vec<(u32, u32)>,
}

impl GroupRows {
    // lint: ingest-hot(begin)
    /// Route `log`'s rows to the groups `key_groups` gives their keys.
    pub fn fill(&mut self, key_groups: &BTreeMap<KeyId, Vec<usize>>, log: &SessionLog) {
        let GroupRows {
            present,
            member,
            spans,
            runs,
            rows,
            routed,
        } = self;
        for &g in present.iter() {
            member[g] = false;
        }
        present.clear();
        routed.clear();
        for (r, m) in (0u32..).zip(log.rows()) {
            for &g in key_groups.get(&m.key_id).map_or(&[][..], Vec::as_slice) {
                if g >= member.len() {
                    member.resize(g + 1, false);
                    spans.resize(g + 1, Lifespan::at(0));
                    runs.resize(g + 1, Run::default());
                }
                if !member[g] {
                    member[g] = true;
                    present.push(g);
                    spans[g] = Lifespan::at(m.ts_ms);
                    runs[g].len = 0;
                }
                spans[g].extend(m.ts_ms);
                runs[g].len += 1;
                routed.push((number(g), r));
            }
        }
        present.sort_unstable();
        // Lay the groups' rows out in group order; each run's `len` counts
        // its rows placed so far.
        let mut start = 0;
        for &g in present.iter() {
            let run = &mut runs[g];
            run.start = start;
            start += run.len;
            run.len = 0;
        }
        rows.resize(start as usize, 0);
        for &(g, r) in routed.iter() {
            let run = &mut runs[g as usize];
            rows[(run.start + run.len) as usize] = r;
            run.len += 1;
        }
    }
    // lint: ingest-hot(end)

    /// The groups present, ascending: the session's fingerprint.
    pub fn groups(&self) -> &[usize] {
        &self.present
    }

    /// `true` if group `g` is present.
    pub fn contains(&self, g: usize) -> bool {
        self.member.get(g).copied().unwrap_or(false)
    }

    /// Group `g`'s lifespan, if it is present.
    pub fn span(&self, g: usize) -> Option<&Lifespan> {
        self.contains(g).then(|| &self.spans[g])
    }

    /// Per group present, ascending: the group, its lifespan and its rows.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Lifespan, &[u32])> + '_ {
        let of = |&g: &usize| (g, self.spans[g], self.runs[g].of(&self.rows));
        self.present.iter().map(of)
    }
}

/// One entity group of a HW-graph with its learned behaviour.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GroupModel {
    /// Group label (the common phrase).
    pub name: String,
    /// Member entity phrases.
    pub entities: BTreeSet<String>,
    /// Intel Keys whose entities belong to this group.
    pub keys: BTreeSet<KeyId>,
    /// Subroutines learned for this group.
    pub subroutines: SubroutineSet,
    /// Critical group flag (§6.3): multiple keys, or a key that repeats
    /// within one session.
    pub critical: bool,
    /// How many training sessions contained this group.
    pub sessions_seen: u64,
    /// `true` if the group appeared in *every* training session — its
    /// absence from a new session is an erroneous-instance anomaly (the
    /// Spark-19371 case study detects sessions missing the 'task' group).
    pub mandatory: bool,
}

/// Statistics of a trained HW-graph (paper Table 5).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Average number of log messages per session.
    pub avg_session_len: f64,
    /// Number of entity groups.
    pub groups_all: usize,
    /// Number of critical entity groups.
    pub groups_critical: usize,
    /// Longest subroutine skeleton.
    pub sub_len_max: usize,
    /// Average subroutine length over all groups.
    pub sub_len_avg_all: f64,
    /// Average subroutine length over critical groups.
    pub sub_len_avg_crit: f64,
}

/// The trained workflow model of one targeted system.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HwGraph {
    /// Entity groups with subroutines.
    pub groups: Vec<GroupModel>,
    /// Group hierarchy (parents / children / sibling order).
    pub hierarchy: Hierarchy,
    /// Key → groups membership (a key may belong to several groups).
    pub key_groups: BTreeMap<KeyId, Vec<usize>>,
    /// Session profiles: per-session-type mandatory groups and subroutines
    /// (see [`crate::profile`]).
    pub profiles: ProfileSet,
    /// Training statistics (Table 5 inputs).
    pub stats: GraphStats,
}

/// Training a HW-graph, cut where the work changes character:
///
/// 1. [`GraphBuilder::plan`] — Algorithm 1 over the keys' entities: the
///    groups, still empty, and which groups each key belongs to. Nothing
///    after it changes either.
/// 2. [`SessionPart::new`] — everything about one session that depends on
///    the plan alone: its rows routed to groups, each group's lifespan, the
///    keys that repeat, and Algorithm 2's split once per group. It reads
///    only the plan's key → groups map ([`GraphBuilder::key_groups`]) and
///    takes the session's log, so a session can be logged and split on any
///    thread, in any order, while the builder absorbs.
/// 3. [`GraphBuilder::absorb`] — the learners consume a part; its arrays,
///    log included, are left for [`SessionPart::refill`]. A session's
///    profile depends on the profiles before it and BEFORE pairs on the
///    instances before them, so parts are absorbed in session order.
/// 4. [`GraphBuilder::finish`] — flags, relations, hierarchy, statistics.
///
/// [`HwGraph::build_from_logs`] is the loop over these, a log at a time; the
/// parallel trainer logs and splits sessions ahead on another thread while
/// it absorbs in order.
pub struct GraphBuilder {
    _span: obs::SpanGuard,
    groups: Vec<GroupModel>,
    key_groups: BTreeMap<KeyId, Vec<usize>>,
    profiles: ProfileSet,
    session_lifespans: Vec<Vec<(usize, Lifespan)>>,
    key_repeats_in_session: BTreeSet<KeyId>,
    total_msgs: usize,
}

/// One session's share of the training, computed by [`SessionPart::new`]
/// and consumed by [`GraphBuilder::absorb`] — possibly on another thread, so
/// it is the session's log and a few arrays, not a few per group: a block
/// allocated on one thread and freed on another costs the allocator memory
/// beyond the block (EXPERIMENTS.md, "Training reads a line the way
/// detection does") and, freed while the other thread allocates, time
/// ("The session close works in numbers"). So an absorbed part is kept and
/// refilled with a later session ([`SessionPart::refill`]) rather than
/// dropped. `anomaly/tests/handoff_count.rs` holds the trainer to the blocks
/// it frees across threads per session.
#[derive(Default)]
pub struct SessionPart {
    /// The session's matched lines: what the split's numbers spell.
    log: SessionLog,
    /// Per group present, ascending; taken by the builder when absorbed.
    lifespans: Vec<(usize, Lifespan)>,
    repeating_keys: Vec<KeyId>,
    /// Algorithm 2 runs once per (session, group); the profile learner and
    /// the group's own learner consume the same instances. Every group's
    /// instances are in `split`, numbered as `instances` says.
    split: InstanceSplit,
    instances: Vec<(usize, Range<usize>)>,
}

impl SessionPart {
    /// Per-group lifespans and subroutine instances of one session, and its
    /// repeating keys (the critical-group criterion), from the session's
    /// log, which the part keeps, given the plan's key → groups map.
    pub fn new(key_groups: &BTreeMap<KeyId, Vec<usize>>, log: SessionLog) -> Self {
        let mut part = SessionPart {
            log,
            ..SessionPart::default()
        };
        part.cut(key_groups);
        part
    }

    /// Make this part (absorbed, or new) the part of another session, in
    /// its arrays: `fill` logs the session into the emptied log.
    pub fn refill(
        &mut self,
        key_groups: &BTreeMap<KeyId, Vec<usize>>,
        fill: impl FnOnce(&mut SessionLog),
    ) {
        self.log.clear();
        fill(&mut self.log);
        self.cut(key_groups);
    }

    /// Everything but the log, from the log.
    fn cut(&mut self, key_groups: &BTreeMap<KeyId, Vec<usize>>) {
        let SessionPart {
            log,
            lifespans,
            repeating_keys,
            split,
            instances,
        } = self;
        let mut keys: Vec<KeyId> = log.rows().iter().map(|m| m.key_id).collect();
        keys.sort_unstable();
        repeating_keys.clear();
        let repeats = keys.windows(2).filter(|pair| pair[0] == pair[1]);
        repeating_keys.extend(repeats.map(|pair| pair[0]));
        repeating_keys.dedup();
        split.clear();
        instances.clear();
        GROUP_ROWS.with(|groups| {
            let groups = &mut *groups.borrow_mut();
            groups.fill(key_groups, log);
            *lifespans = groups.iter().map(|(g, span, _)| (g, span)).collect();
            let split_of = |(g, _, rows)| (g, split_instances_into(log, rows, split));
            instances.extend(groups.iter().map(split_of));
        });
    }
}

thread_local! {
    /// The rows-by-group arrays of the sessions this thread cuts into parts.
    static GROUP_ROWS: RefCell<GroupRows> = RefCell::default();
}

impl GraphBuilder {
    /// Entity universe, Algorithm 1 grouping and key → groups membership.
    pub fn plan(keys: &[IntelKey]) -> GraphBuilder {
        let _span = obs::span!("hwgraph.build");
        let all_entities: BTreeSet<String> = keys
            .iter()
            .flat_map(|k| k.entity_phrases().into_iter().map(str::to_string))
            .collect();
        let grouping: Grouping = group_entities(all_entities);

        let mut key_groups: BTreeMap<KeyId, Vec<usize>> = BTreeMap::new();
        for k in keys {
            let mut gs: Vec<usize> = k
                .entity_phrases()
                .iter()
                .flat_map(|e| grouping.groups_of(e).iter().copied())
                .collect();
            gs.sort_unstable();
            gs.dedup();
            key_groups.insert(k.key_id, gs);
        }

        let mut groups: Vec<GroupModel> = grouping
            .groups
            .iter()
            .map(|g| GroupModel {
                name: g.name.clone(),
                entities: g.entities.clone(),
                ..Default::default()
            })
            .collect();
        for (kid, gs) in &key_groups {
            for &g in gs {
                groups[g].keys.insert(*kid);
            }
        }
        GraphBuilder {
            _span,
            groups,
            key_groups,
            profiles: ProfileSet::new(),
            session_lifespans: Vec::new(),
            key_repeats_in_session: BTreeSet::new(),
            total_msgs: 0,
        }
    }

    /// The plan's key → groups map: all that [`SessionPart::new`] reads.
    pub fn key_groups(&self) -> &BTreeMap<KeyId, Vec<usize>> {
        &self.key_groups
    }

    /// Train on the next session, given its part; the part's lifespans stay
    /// with the builder, the rest of it is left to refill.
    pub fn absorb(&mut self, part: &mut SessionPart) {
        let groups = || part.instances.iter().cloned();
        let instances = |range| part.split.instances(&part.log, range);
        // Each learner's signatures spelt in the session's type numbers.
        let mut sigs = SignatureNumbers::default();
        let rows = part.log.len();
        if rows > 0 {
            let fingerprint: Vec<usize> = groups().map(|(g, _)| g).collect();
            let profile = self.profiles.join(&fingerprint);
            for (g, range) in groups() {
                let learner = profile.subroutines.entry(g).or_default();
                learner.train_instances(&mut sigs, instances(range));
            }
        }
        for (g, range) in groups() {
            self.groups[g].sessions_seen += 1;
            let learner = &mut self.groups[g].subroutines;
            learner.train_instances(&mut sigs, instances(range));
        }
        self.total_msgs += rows;
        self.session_lifespans
            .push(std::mem::take(&mut part.lifespans));
        self.key_repeats_in_session
            .extend(part.repeating_keys.iter().copied());
    }

    /// Flags, relations, hierarchy and statistics over what was absorbed.
    pub fn finish(self) -> HwGraph {
        let GraphBuilder {
            _span,
            mut groups,
            key_groups,
            profiles,
            session_lifespans,
            key_repeats_in_session,
            total_msgs,
        } = self;
        let sessions = session_lifespans.len();

        // Critical and mandatory flags (§6.3 / §6.4 case 3).
        for g in groups.iter_mut() {
            g.critical =
                g.keys.len() > 1 || g.keys.iter().any(|k| key_repeats_in_session.contains(k));
            g.mandatory = sessions > 0 && g.sessions_seen == sessions as u64;
        }

        let relations = GroupRelations::compute(groups.len(), &session_lifespans);
        let hierarchy = Hierarchy::build(&relations);

        // Table 5 statistics.
        let sub_lens_all: Vec<usize> = groups
            .iter()
            .flat_map(|g| g.subroutines.subroutines().map(|s| s.keys.len()))
            .collect();
        let sub_lens_crit: Vec<usize> = groups
            .iter()
            .filter(|g| g.critical)
            .flat_map(|g| g.subroutines.subroutines().map(|s| s.keys.len()))
            .collect();
        let avg = |v: &[usize]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<usize>() as f64 / v.len() as f64
            }
        };
        let stats = GraphStats {
            avg_session_len: if sessions == 0 {
                0.0
            } else {
                total_msgs as f64 / sessions as f64
            },
            groups_all: groups.len(),
            groups_critical: groups.iter().filter(|g| g.critical).count(),
            sub_len_max: sub_lens_all.iter().copied().max().unwrap_or(0),
            sub_len_avg_all: avg(&sub_lens_all),
            sub_len_avg_crit: avg(&sub_lens_crit),
        };

        obs::inc!("hwgraph.builds");
        obs::add!("hwgraph.groups", stats.groups_all as u64);
        obs::add!("hwgraph.groups_critical", stats.groups_critical as u64);
        obs::add!("hwgraph.subroutines", sub_lens_all.len() as u64);
        obs::add!("hwgraph.sessions_trained", sessions as u64);
        obs::event!(
            "hwgraph.built",
            "groups" = stats.groups_all,
            "critical" = stats.groups_critical,
            "sessions" = sessions,
        );
        HwGraph {
            groups,
            hierarchy,
            key_groups,
            profiles,
            stats,
        }
    }
}

impl HwGraph {
    /// [`HwGraph::build_from_logs`] for callers that hold owned Intel
    /// Messages: converts each session to its log as the build reaches it.
    pub fn build(keys: &[IntelKey], sessions: &[Vec<IntelMessage>]) -> HwGraph {
        let logs = sessions.iter().map(|s| SessionLog::from_messages(s));
        HwGraph::build_from_logs(keys, logs)
    }

    /// Build (train) a HW-graph from Intel Keys and per-session logs of the
    /// matched lines (time-ordered within each session): the plain loop over
    /// [`GraphBuilder`]'s pieces, one session at a time, each log dropped
    /// once absorbed.
    pub fn build_from_logs(
        keys: &[IntelKey],
        logs: impl IntoIterator<Item = SessionLog>,
    ) -> HwGraph {
        let mut builder = GraphBuilder::plan(keys);
        for log in logs {
            let mut part = SessionPart::new(builder.key_groups(), log);
            builder.absorb(&mut part);
        }
        builder.finish()
    }

    /// Check every group index the graph stores against `groups.len()`.
    /// [`HwGraph::build`] always produces a graph that passes; one read
    /// from a model file may not, and detection and rendering index
    /// `groups` and `hierarchy.nodes` with these values unchecked.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.groups.len();
        let h = &self.hierarchy;
        if h.nodes.len() != n {
            return Err(format!(
                "hierarchy has {} nodes for {n} groups",
                h.nodes.len()
            ));
        }
        let key_groups = self.key_groups.values().flatten();
        let profiles = self.profiles.profiles.iter().flat_map(|p| {
            p.groups
                .iter()
                .chain(&p.mandatory)
                .chain(p.subroutines.keys())
        });
        let hierarchy = h.roots.iter().chain(
            h.nodes
                .iter()
                .flat_map(|node| node.parent.iter().chain(&node.children).chain(&node.before)),
        );
        match key_groups
            .chain(profiles)
            .chain(hierarchy)
            .find(|&&g| g >= n)
        {
            Some(g) => Err(format!("group index {g} out of range ({n} groups)")),
            None => Ok(()),
        }
    }

    /// The groups a key belongs to.
    pub fn groups_of_key(&self, k: KeyId) -> &[usize] {
        self.key_groups.get(&k).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Serialise to pretty JSON (paper §5: HW-graphs are output as JSON).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("HwGraph is always serialisable")
    }

    /// Parse back from JSON.
    pub fn from_json(s: &str) -> Result<HwGraph, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Render the HW-graph as Graphviz DOT (Fig. 8(a) as a drawable graph):
    /// clusters are parent/child containment, solid arrows are sibling
    /// BEFORE edges, critical groups are drawn bold.
    pub fn render_dot(&self) -> String {
        let mut out = String::from("digraph hwgraph {\n  rankdir=TB;\n  node [shape=box];\n");
        for (g, gm) in self.groups.iter().enumerate() {
            let style = if gm.critical { ",style=bold" } else { "" };
            out.push_str(&format!(
                "  g{g} [label=\"{}\\n({} entities, {} keys)\"{style}];\n",
                gm.name.replace('"', ""),
                gm.entities.len(),
                gm.keys.len()
            ));
        }
        for (g, node) in self.hierarchy.nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                out.push_str(&format!(
                    "  g{p} -> g{g} [style=dashed,arrowhead=odiamond];\n"
                ));
            }
            for &b in &node.before {
                out.push_str(&format!("  g{g} -> g{b};\n"));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Render the hierarchy as an indented text tree (Fig. 8(a) analogue).
    /// Critical groups are marked `*`; `keys` supplies operation labels for
    /// each group's subroutines (Fig. 8(b) analogue).
    pub fn render_text(&self, keys: &[IntelKey]) -> String {
        let mut out = String::new();
        let key_label = |kid: KeyId| -> String {
            keys.iter()
                .find(|k| k.key_id == kid)
                .map(|k| k.label())
                .unwrap_or_else(|| kid.to_string())
        };
        let mut stack: Vec<usize> = self.hierarchy.roots.iter().rev().copied().collect();
        while let Some(g) = stack.pop() {
            let node = &self.hierarchy.nodes[g];
            let gm = &self.groups[g];
            let indent = "  ".repeat(node.depth);
            let mark = if gm.critical { "*" } else { "" };
            let before: Vec<&str> = node
                .before
                .iter()
                .map(|&b| self.groups[b].name.as_str())
                .collect();
            out.push_str(&format!(
                "{indent}[{}{mark}] entities={{{}}}{}\n",
                gm.name,
                gm.entities.iter().cloned().collect::<Vec<_>>().join(", "),
                if before.is_empty() {
                    String::new()
                } else {
                    format!(" before: {}", before.join(", "))
                },
            ));
            for (si, sub) in gm.subroutines.subroutines().enumerate() {
                let sig = if sub.signature.is_empty() {
                    "no identifier".to_string()
                } else {
                    sub.signature.iter().cloned().collect::<Vec<_>>().join(", ")
                };
                out.push_str(&format!("{indent}  s{}: [{sig}]\n", si + 1));
                for &k in &sub.keys {
                    let crit = if sub.critical.contains(&k) { "!" } else { " " };
                    out.push_str(&format!("{indent}    {crit} {}\n", key_label(k)));
                }
            }
            for &c in self.hierarchy.nodes[g].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extract::IntelExtractor;
    use spell::SpellParser;

    /// A miniature two-session Spark-like corpus exercising the whole build.
    fn mini_corpus() -> (Vec<IntelKey>, Vec<Vec<IntelMessage>>) {
        let scripts: Vec<Vec<&str>> = vec![
            vec![
                "Changing view acls to root",
                "Registering block manager endpoint on host1",
                "block manager registered with 2 GB memory",
                "Starting task 1 in stage 0",
                "Starting task 2 in stage 0",
                "Finished task 1 in stage 0 and sent 2264 bytes to driver",
                "Finished task 2 in stage 0 and sent 998 bytes to driver",
                "Stopped block manager cleanly",
                "Shutdown hook called",
            ],
            vec![
                "Changing view acls to root",
                "Registering block manager endpoint on host2",
                "block manager registered with 4 GB memory",
                "Starting task 3 in stage 0",
                "Finished task 3 in stage 0 and sent 104 bytes to driver",
                "Stopped block manager cleanly",
                "Shutdown hook called",
            ],
        ];
        let mut parser = SpellParser::default();
        let mut sessions = Vec::new();
        let ex = IntelExtractor::new();
        // First pass: learn keys.
        let outs: Vec<Vec<_>> = scripts
            .iter()
            .map(|lines| lines.iter().map(|l| parser.parse_message(l)).collect())
            .collect();
        let keys: Vec<IntelKey> = parser.keys().iter().map(|k| ex.build(k)).collect();
        for (si, session_outs) in outs.iter().enumerate() {
            let msgs: Vec<IntelMessage> = session_outs
                .iter()
                .enumerate()
                .map(|(i, o)| {
                    IntelMessage::instantiate(
                        &keys[o.key_id.0 as usize],
                        &o.tokens,
                        format!("container_{si}"),
                        i as u64 * 10,
                    )
                })
                .collect();
            sessions.push(msgs);
        }
        (keys, sessions)
    }

    #[test]
    fn build_produces_groups_and_hierarchy() {
        let (keys, sessions) = mini_corpus();
        let g = HwGraph::build(&keys, &sessions);
        assert!(!g.groups.is_empty());
        // the block-manager family lands in one group
        let bm = g
            .groups
            .iter()
            .find(|gr| gr.entities.contains("block manager"));
        assert!(
            bm.is_some(),
            "{:?}",
            g.groups.iter().map(|x| &x.name).collect::<Vec<_>>()
        );
        // task group exists and is critical (repeats within a session)
        let tg = g
            .groups
            .iter()
            .position(|gr| gr.name == "task")
            .expect("task group");
        assert!(g.groups[tg].critical);
        assert_eq!(g.hierarchy.nodes.len(), g.groups.len());
        assert!(!g.hierarchy.roots.is_empty());
    }

    #[test]
    fn stats_reflect_corpus_shape() {
        let (keys, sessions) = mini_corpus();
        let g = HwGraph::build(&keys, &sessions);
        assert!((g.stats.avg_session_len - 8.0).abs() < 0.01);
        assert_eq!(g.stats.groups_all, g.groups.len());
        assert!(g.stats.groups_critical <= g.stats.groups_all);
        assert!(g.stats.sub_len_max >= 1);
        assert!(g.stats.sub_len_avg_all > 0.0);
    }

    #[test]
    fn task_subroutine_orders_start_before_finish() {
        let (keys, sessions) = mini_corpus();
        let g = HwGraph::build(&keys, &sessions);
        let tg = g.groups.iter().find(|gr| gr.name == "task").unwrap();
        // find the TASK-signature subroutine
        let sub = tg
            .subroutines
            .subroutines()
            .find(|s| s.signature.contains("TASK"))
            .expect("task subroutine");
        assert_eq!(sub.keys.len(), 2, "{sub:?}");
        assert!(sub.is_before(sub.keys[0], sub.keys[1]));
        assert_eq!(sub.critical.len(), 2);
    }

    /// Splitting each (session, group) once and handing both learners the
    /// same instances changes nothing: the model is, byte for byte, the one
    /// got by training each learner from the reference split.
    #[test]
    fn build_equals_training_both_learners_through_the_oracle() {
        use crate::subroutine::split_instances_oracle;
        let (keys, mut sessions) = mini_corpus();
        // a longer session whose task instances interleave
        let mut long = sessions[0].clone();
        long.extend(sessions[1].iter().cloned());
        long.sort_by_key(|m| m.ts_ms);
        sessions.push(long);
        let built = HwGraph::build(&keys, &sessions);

        let mut expected = built.clone();
        for g in &mut expected.groups {
            g.subroutines = SubroutineSet::default();
        }
        expected.profiles = ProfileSet::new();
        for session in &sessions {
            let mut per_group: BTreeMap<usize, Vec<&IntelMessage>> = BTreeMap::new();
            for m in session {
                for &g in built.groups_of_key(m.key_id) {
                    per_group.entry(g).or_default().push(m);
                }
            }
            let fingerprint: Vec<usize> = per_group.keys().copied().collect();
            let profile = expected.profiles.join(&fingerprint);
            for (g, msgs) in &per_group {
                let instances = split_instances_oracle(msgs);
                let learner = profile.subroutines.entry(*g).or_default();
                learner.train_rendered(&instances);
                expected.groups[*g].subroutines.train_rendered(&instances);
            }
        }
        let mut learned = built
            .groups
            .iter()
            .flat_map(|g| g.subroutines.subroutines());
        assert!(learned.any(|s| !s.signature.is_empty() && s.instances > 3));
        assert_eq!(built.to_json(), expected.to_json());
    }

    #[test]
    fn json_roundtrip() {
        let (keys, sessions) = mini_corpus();
        let g = HwGraph::build(&keys, &sessions);
        let j = g.to_json();
        let back = HwGraph::from_json(&j).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn render_text_contains_groups_and_marks() {
        let (keys, sessions) = mini_corpus();
        let g = HwGraph::build(&keys, &sessions);
        let txt = g.render_text(&keys);
        assert!(txt.contains("[task*]"), "{txt}");
        assert!(txt.contains("s1:"), "{txt}");
    }

    #[test]
    fn dot_rendering_wellformed() {
        let (keys, sessions) = mini_corpus();
        let g = HwGraph::build(&keys, &sessions);
        let dot = g.render_dot();
        assert!(dot.starts_with("digraph hwgraph {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("style=bold"), "critical groups drawn bold");
        // one node line per group
        assert_eq!(dot.matches("[label=").count(), g.groups.len());
    }

    #[test]
    fn empty_corpus() {
        let g = HwGraph::build(&[], &[]);
        assert!(g.groups.is_empty());
        assert_eq!(g.stats.avg_session_len, 0.0);
    }
}
