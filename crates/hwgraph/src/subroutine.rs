//! Subroutine construction within an entity group (paper §4.1, Algorithm 2
//! and the `UpdateSubroutine` function of Fig. 5).
//!
//! Within one entity group, the Intel-Key sequence of a session is split
//! into *subroutine instances* by identifier values: a message joins the
//! instance whose identifier-value set is ⊆-comparable with its own;
//! identifier-free messages go to the `NONE` instance. Instances are then
//! grouped by their *signature* — the set of identifier **types** — and per
//! signature a partial order over Intel Keys is learned:
//!
//! * `BEFORE(k1, k2)` survives as long as `k1`'s first occurrence precedes
//!   `k2`'s in every observed instance; one counter-example demotes the pair
//!   to parallel (Fig. 5, `Seq_3`);
//! * a key is **critical** while it appears in every observed instance
//!   (Fig. 5, `Seq_4` demotes `D`).

use extract::record::{number, Run};
use extract::SessionLog;
use serde::{Deserialize, Serialize};
use spell::KeyId;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;

/// The signature of a subroutine: the set of identifier types its instances
/// carry (`{"STAGE", "TASK"}`). The empty signature is the `NONE` bucket.
pub type Signature = BTreeSet<String>;

/// A learned subroutine: the ordered key skeleton for one signature.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Subroutine {
    /// Identifier-type signature.
    pub signature: Signature,
    /// Keys in first-seen order.
    pub keys: Vec<KeyId>,
    /// Surviving BEFORE pairs (k1 strictly precedes k2 in every instance).
    pub before: BTreeSet<(KeyId, KeyId)>,
    /// Keys observed in *every* instance so far.
    pub critical: BTreeSet<KeyId>,
    /// Number of instances consumed.
    pub instances: u64,
}

impl Subroutine {
    /// `true` if `a BEFORE b` still holds.
    pub fn is_before(&self, a: KeyId, b: KeyId) -> bool {
        self.before.contains(&(a, b))
    }

    /// Consume one instance: the keys of the instance's messages in order.
    pub fn update(&mut self, seq: &[KeyId]) {
        let first = FirstSeen::of(seq);
        if self.instances == 0 {
            self.keys = first.distinct().collect();
            for (i, &a) in self.keys.iter().enumerate() {
                for &b in &self.keys[i + 1..] {
                    self.before.insert((a, b));
                }
            }
            self.critical = self.keys.iter().copied().collect();
        } else {
            // Register unseen keys (not critical: they were missing before).
            for k in first.distinct() {
                if !self.keys.contains(&k) {
                    self.keys.push(k);
                }
            }
            // Break BEFORE pairs contradicted by this instance. Pairs whose
            // keys do not co-occur here are left untouched.
            self.before
                .retain(|&(a, b)| match (first.get(a), first.get(b)) {
                    (Some(ia), Some(ib)) => ia < ib,
                    _ => true,
                });
            // A key missed by this instance stops being critical (Fig. 5).
            self.critical.retain(|&k| first.get(k).is_some());
        }
        self.instances += 1;
    }
}

/// First-occurrence positions of the keys of one instance's key sequence:
/// what both the learner ([`Subroutine::update`]) and the end-of-session
/// checks ask of an instance. Instances average fewer than two keys, so a
/// short sequence is scanned in place and nothing is allocated; only a long
/// one (a NONE bucket collecting a whole session) gets a map.
pub struct FirstSeen<'a> {
    seq: &'a [KeyId],
    /// Filled only when `seq` is longer than [`FirstSeen::SCAN_MAX`].
    index: HashMap<KeyId, usize>,
}

impl<'a> FirstSeen<'a> {
    /// Longest sequence answered by scanning it.
    const SCAN_MAX: usize = 16;

    /// Index one instance's key sequence.
    pub fn of(seq: &'a [KeyId]) -> FirstSeen<'a> {
        let mut index = HashMap::new();
        if seq.len() > Self::SCAN_MAX {
            for (i, &k) in seq.iter().enumerate() {
                index.entry(k).or_insert(i);
            }
        }
        FirstSeen { seq, index }
    }

    /// Position of `k`'s first occurrence, if it occurs.
    pub fn get(&self, k: KeyId) -> Option<usize> {
        if self.seq.len() > Self::SCAN_MAX {
            self.index.get(&k).copied()
        } else {
            self.seq.iter().position(|&x| x == k)
        }
    }

    /// The distinct keys in first-occurrence order.
    pub fn distinct(&self) -> impl Iterator<Item = KeyId> + '_ {
        self.seq
            .iter()
            .enumerate()
            .filter(|&(i, &k)| self.get(k) == Some(i))
            .map(|(_, &k)| k)
    }
}

/// One subroutine *instance* recovered from a session (Algorithm 2's
/// `D_vl` entries): the identifier values bind the messages together.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubroutineInstance {
    /// Union of identifier values seen (`S_v`); empty for the NONE bucket.
    pub id_values: BTreeSet<String>,
    /// Identifier types seen (the signature this instance belongs to).
    pub signature: Signature,
    /// Message indices (into the session's group-sequence) in order.
    pub message_indices: Vec<usize>,
    /// Key of each message, in order.
    pub keys: Vec<KeyId>,
}

/// One instance inside an [`InstanceSplit`], as runs of its arrays.
#[derive(Debug, Clone, Copy, Default)]
struct Numbered {
    /// `S_v` as distinct value numbers, in `value_sets`.
    values: Run,
    /// Distinct identifier-type numbers, in `type_sets`.
    types: Run,
    /// Its messages, in `message_indices` and `keys`.
    messages: Run,
}

/// The result of Algorithm 2 for one (session, group) message sequence — or
/// for several groups of one session, one after the other
/// ([`split_instances_into`]) — before any string is built: identifier types
/// and scoped values are the session log's numbers, and every instance is a
/// few runs of shared arrays. The split holds numbers only: whatever spells
/// them takes the log they number ([`InstanceSplit::instances`]), so a split
/// and its log can travel together without one borrowing the other. The
/// learners and the end-of-session checks read key sequences and compare
/// signatures through it as they are ([`SignatureNumbers`]);
/// [`Instance::signature`] /
/// [`Instance::id_values`] build the strings of one instance (an anomaly
/// being reported, a new signature) and [`InstanceSplit::render`] those of
/// all of them (a [`SubroutineInstance`] list for inspection).
#[derive(Debug, Default)]
pub struct InstanceSplit {
    value_sets: Vec<u32>,
    type_sets: Vec<u32>,
    /// Message indices grouped by instance, in order within each.
    message_indices: Vec<usize>,
    /// Key of each entry of `message_indices`.
    keys: Vec<KeyId>,
    /// Per split: the NONE bucket first (if any message had no identifier),
    /// then the identified instances in creation order.
    instances: Vec<Numbered>,
}

/// A view of one instance of an [`InstanceSplit`], over the log it numbers.
#[derive(Debug, Clone, Copy)]
pub struct Instance<'s> {
    split: &'s InstanceSplit,
    log: &'s SessionLog,
    raw: Numbered,
}

impl InstanceSplit {
    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// `true` for an empty message sequence.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Empty the split, keeping its arrays' room for the next session.
    pub fn clear(&mut self) {
        self.value_sets.clear();
        self.type_sets.clear();
        self.message_indices.clear();
        self.keys.clear();
        self.instances.clear();
    }

    /// The instances over `log`, the one they were split from: the NONE
    /// bucket first, then in creation order.
    pub fn iter<'s>(&'s self, log: &'s SessionLog) -> impl Iterator<Item = Instance<'s>> {
        self.instances(log, 0..self.len())
    }

    /// The instances numbered `range` — those of one message sequence, as
    /// [`split_instances_into`] returned it — over `log`, the one they were
    /// split from.
    pub fn instances<'s>(
        &'s self,
        log: &'s SessionLog,
        range: Range<usize>,
    ) -> impl Iterator<Item = Instance<'s>> {
        self.instances[range].iter().map(move |&raw| Instance {
            split: self,
            log,
            raw,
        })
    }

    /// Every instance with its strings built from `log`, the one they were
    /// split from.
    pub fn render(&self, log: &SessionLog) -> Vec<SubroutineInstance> {
        self.iter(log).map(|inst| inst.render()).collect()
    }
}

impl<'s> Instance<'s> {
    /// The instance with its strings built.
    pub fn render(&self) -> SubroutineInstance {
        SubroutineInstance {
            id_values: self.id_values(),
            signature: self.signature(),
            message_indices: self.raw.messages.of(&self.split.message_indices).to_vec(),
            keys: self.keys().to_vec(),
        }
    }

    /// Key of each message, in order.
    pub fn keys(&self) -> &'s [KeyId] {
        self.raw.messages.of(&self.split.keys)
    }

    /// The log's numbers of the identifier types seen, each once.
    fn type_numbers(&self) -> &'s [u32] {
        self.raw.types.of(&self.split.type_sets)
    }

    fn type_names(&self) -> impl Iterator<Item = &'s str> + '_ {
        self.type_numbers().iter().map(|&t| self.log.type_name(t))
    }

    /// The identifier types seen (the signature this instance belongs to).
    pub fn signature(&self) -> Signature {
        self.type_names().map(str::to_string).collect()
    }

    /// Union of identifier values seen (`S_v`), each scoped as `type:value`;
    /// empty for the NONE bucket.
    pub fn id_values(&self) -> BTreeSet<String> {
        let values = self.raw.values.of(&self.split.value_sets);
        values
            .iter()
            .map(|&v| self.log.scoped_value(v).to_string())
            .collect()
    }
}

/// Lists of instance numbers, one per scoped value, linked through one
/// array (a value held by one instance costs no allocation of its own).
struct InstanceLists {
    /// Per list: its newest link (`NIL` if empty) and its length. As long
    /// as the most lists a call on this thread asked for; every list not in
    /// `touched` is empty.
    heads: Vec<(u32, u32)>,
    /// `(instance, next link)`.
    links: Vec<(u32, u32)>,
    /// The lists made non-empty since the last [`InstanceLists::reset`].
    touched: Vec<u32>,
}

const NIL: u32 = u32::MAX;

impl InstanceLists {
    const fn new() -> InstanceLists {
        InstanceLists {
            heads: Vec::new(),
            links: Vec::new(),
            touched: Vec::new(),
        }
    }

    // lint: ingest-hot(begin)
    /// Empty every list and make room for `lists` of them: only the lists
    /// the last call touched are reset, not one head per value.
    fn reset(&mut self, lists: usize) {
        for &list in &self.touched {
            self.heads[list as usize] = (NIL, 0);
        }
        self.touched.clear();
        self.links.clear();
        if self.heads.len() < lists {
            self.heads.resize(lists, (NIL, 0));
        }
    }

    fn len(&self, list: u32) -> u32 {
        self.heads[list as usize].1
    }

    fn push(&mut self, list: u32, instance: u32) {
        let (head, len) = &mut self.heads[list as usize];
        if *len == 0 {
            self.touched.push(list);
        }
        self.links.push((instance, *head));
        *head = number(self.links.len() - 1);
        *len += 1;
    }

    /// The instances in `list`, newest first: as many links as its length
    /// says, so a head left over from another call cannot walk forever.
    fn iter(&self, list: u32) -> impl Iterator<Item = u32> + '_ {
        let (mut link, len) = self.heads[list as usize];
        (0..len).map(move |_| {
            let (instance, next) = self.links[link as usize];
            link = next;
            instance
        })
    }
    // lint: ingest-hot(end)
}

/// The working arrays of [`split_instances_into`], kept by each thread that
/// splits: grown to the largest call it made, cleared by the next, never
/// dropped while the thread lives. The split runs once per (session, group)
/// in training and at every session close in detection; arrays owned by the
/// call would be allocated that often, and the heads, sized to the whole
/// session's values, zero-filled that often.
struct SplitScratch {
    postings: InstanceLists,
    anchored: InstanceLists,
    /// This call's instances; instance 0 is the NONE bucket.
    instances: Vec<Numbered>,
    /// Per message, the instance it joined.
    owner: Vec<u32>,
    /// The current message's distinct values and types.
    ids: Vec<u32>,
    tys: Vec<u32>,
    /// Per instance, its next free place in `out`'s message arrays.
    fill: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<SplitScratch> = const {
        RefCell::new(SplitScratch {
            postings: InstanceLists::new(),
            anchored: InstanceLists::new(),
            instances: Vec::new(),
            owner: Vec::new(),
            ids: Vec::new(),
            tys: Vec::new(),
            fill: Vec::new(),
        })
    };
}

/// Split one session's group-local message sequence — `rows` of `log`, in
/// order — into subroutine instances (Algorithm 2 lines 4–15), appended to
/// `out`, which must hold only splits of the same log: returns the numbers
/// its instances were given. A message joins the first instance whose value
/// set `S_v` is ⊆-comparable with its own identifier values `ids`, else
/// opens one. A session's groups split into one `InstanceSplit` share five
/// arrays instead of owning five each — what the trainer hands, with the
/// log, from the thread that split a session to the one that learns from it.
///
/// Values are scoped by their identifier type: bare numerals collide across
/// types ('executor 3' vs 'task 3'), while real-world ids like
/// 'attempt_…_m_000003_0' are naturally self-scoping. Two scoped values are
/// the same value when their `type:value` spellings are — the rule the log
/// numbered them under, so the split receives integers.
///
/// The search is indexed, not a scan over the open instances. Two non-empty
/// sets can only be ⊆-comparable if they share a value, so per value there
/// are two lists of instances:
///
/// * `postings[v]` — the instances holding `v`. An instance with `ids ⊆ S_v`
///   holds every value of the message, so it is in the *shortest* of their
///   postings; each one there is checked for the rest.
/// * `anchored[v]` — the instances opened while `v` was the rarest value of
///   the opening message (their *anchor*; `S_v` only grows, so it stays in
///   it). An instance with `S_v ⊆ ids` has its anchor among the message's
///   values; each one anchored there is checked for `S_v ⊆ ids`.
///
/// The lowest-numbered instance that passes either check is the one a scan
/// in creation order would have stopped at. A value that every instance
/// shares (one STAGE for a session of TASKs) is in a long posting list but is
/// never the rarest of a message with a fresher value, so it costs nothing.
///
/// Everything but `out` lives in the calling thread's `SplitScratch`, so
/// on a warm thread a call allocates only for the growth of `out`.
// lint: ingest-hot(begin)
pub fn split_instances_into(
    log: &SessionLog,
    rows: &[u32],
    out: &mut InstanceSplit,
) -> Range<usize> {
    SCRATCH.with(|scratch| split_with(&mut scratch.borrow_mut(), log, rows, out))
}

/// [`split_instances_into`] on the working arrays `scratch`.
fn split_with(
    scratch: &mut SplitScratch,
    log: &SessionLog,
    rows: &[u32],
    out: &mut InstanceSplit,
) -> Range<usize> {
    let SplitScratch {
        postings,
        anchored,
        instances,
        owner,
        ids,
        tys,
        fill,
    } = scratch;
    postings.reset(log.value_count());
    anchored.reset(log.value_count());
    let InstanceSplit {
        value_sets,
        type_sets,
        ..
    } = out;
    // Instance 0 is the NONE bucket, held by no list.
    instances.clear();
    instances.push(Numbered::default());
    number(rows.len()); // positions among the messages are 32-bit too
    owner.clear();
    let row = |r: &u32| &log.rows()[*r as usize];

    for m in rows.iter().map(row) {
        ids.clear();
        tys.clear();
        for &(ty, id) in log.identifiers(m) {
            if !tys.contains(&ty) {
                tys.push(ty);
            }
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let Some(&rarest) = ids.iter().min_by_key(|&&v| postings.len(v)) else {
            instances[0].messages.len += 1;
            owner.push(0);
            continue;
        };

        let mut found = NIL;
        for i in postings.iter(rarest) {
            let held = instances[i as usize].values.of(value_sets);
            if i < found && ids.iter().all(|v| held.contains(v)) {
                found = i;
            }
        }
        for &v in ids.iter() {
            for i in anchored.iter(v) {
                let held = instances[i as usize].values.of(value_sets);
                if i < found && held.iter().all(|v| ids.contains(v)) {
                    found = i;
                }
            }
        }
        if found == NIL {
            found = number(instances.len());
            instances.push(Numbered::default());
            anchored.push(rarest, found);
        }

        let inst = &mut instances[found as usize];
        // ⊆-comparable, so the union is the larger of the two sets.
        if ids.len() > inst.values.len as usize {
            let held = inst.values.of(value_sets);
            for &v in ids.iter().filter(|v| !held.contains(v)) {
                postings.push(v, found);
            }
            let start = value_sets.len();
            value_sets.extend_from_slice(ids);
            inst.values = Run::tail_of(value_sets, start);
        }
        if tys.iter().any(|t| !inst.types.of(type_sets).contains(t)) {
            let start = type_sets.len();
            type_sets.extend_from_within(inst.types.range());
            for &t in tys.iter() {
                if !type_sets[start..].contains(&t) {
                    type_sets.push(t);
                }
            }
            inst.types = Run::tail_of(type_sets, start);
        }
        inst.messages.len += 1;
        owner.push(found);
    }

    // Group the messages by owner, keeping their order within each, behind
    // the messages `out` already holds.
    let base = out.keys.len();
    let mut next = number(base);
    for inst in instances.iter_mut() {
        inst.messages.start = next;
        next += inst.messages.len;
    }
    number(base + rows.len());
    out.message_indices.resize(base + rows.len(), 0);
    out.keys.resize(base + rows.len(), KeyId(0));
    fill.clear();
    fill.extend(instances.iter().map(|inst| inst.messages.start));
    for (mi, (&o, m)) in owner.iter().zip(rows.iter().map(row)).enumerate() {
        let at = &mut fill[o as usize];
        out.message_indices[*at as usize] = mi;
        out.keys[*at as usize] = m.key_id;
        *at += 1;
    }
    let none_is_empty = instances[0].messages.len == 0;
    let first = out.instances.len();
    out.instances
        .extend_from_slice(&instances[none_is_empty as usize..]);
    first..out.instances.len()
}
// lint: ingest-hot(end)

/// The per-group subroutine learner: `D_ti` of Algorithm 2, one
/// [`Subroutine`] per signature. (Stored as a vector rather than a
/// signature-keyed map so the type serialises to JSON.)
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubroutineSet {
    /// Learned subroutines, one per signature, in first-seen order.
    pub subs: Vec<Subroutine>,
}

impl SubroutineSet {
    /// The subroutine for a signature, if learned.
    pub fn get(&self, signature: &Signature) -> Option<&Subroutine> {
        self.subs.iter().find(|s| &s.signature == signature)
    }

    /// Consume the instances of one session's group-local messages, all
    /// split from one log (training). `sigs` is working space for the set's
    /// signatures spelt in that log's type numbers: an instance finds its
    /// subroutine by comparing integers, as in the end-of-session checks.
    pub fn train_instances<'s>(
        &mut self,
        sigs: &mut SignatureNumbers,
        instances: impl Iterator<Item = Instance<'s>>,
    ) {
        let mut instances = instances.peekable();
        if let Some(first) = instances.peek() {
            sigs.spell(self, first.log);
        }
        for inst in instances {
            let i = sigs.position(inst).unwrap_or_else(|| {
                self.subs.push(Subroutine {
                    signature: inst.signature(),
                    ..Default::default()
                });
                sigs.push(inst.type_numbers());
                self.subs.len() - 1
            });
            self.subs[i].update(inst.keys());
        }
    }

    /// The subroutine an instance belongs to (by signature), if learned.
    /// `sigs` holds this set spelt in the instance's log
    /// ([`SignatureNumbers::spell`]).
    pub fn of_instance(&self, sigs: &SignatureNumbers, inst: Instance<'_>) -> Option<&Subroutine> {
        debug_assert_eq!(sigs.sigs.len(), self.subs.len(), "spelt from another set");
        sigs.position(inst).map(|i| &self.subs[i])
    }

    /// All learned subroutines.
    pub fn subroutines(&self) -> impl Iterator<Item = &Subroutine> {
        self.subs.iter()
    }

    /// Number of subroutines (signatures).
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// `true` if nothing was learned yet.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }
}

/// One [`SubroutineSet`]'s signatures spelt in one session log's type
/// numbers, so that an instance of that log finds its subroutine by
/// comparing integers, in training ([`SubroutineSet::train_instances`]) and
/// in the end-of-session checks ([`SubroutineSet::of_instance`]) alike. Each
/// signature's names are looked up among the log's few type names once per
/// (set, log), not once per instance. Working arrays, like
/// [`GroupRows`](crate::GroupRows): kept by the caller, refilled by
/// [`SignatureNumbers::spell`].
#[derive(Debug, Default)]
pub struct SignatureNumbers {
    /// Every spelt signature's type numbers, one run each.
    types: Vec<u32>,
    /// Per subroutine of the set, in order: its signature's run of `types`,
    /// or `None` when the log has no type of one of its names (no instance
    /// of the log carries it).
    sigs: Vec<Option<Run>>,
}

impl SignatureNumbers {
    // lint: ingest-hot(begin)
    /// Spell every signature of `set` in `log`'s type numbers, replacing
    /// what was spelt before.
    pub fn spell(&mut self, set: &SubroutineSet, log: &SessionLog) {
        self.types.clear();
        self.sigs.clear();
        for sub in &set.subs {
            let start = self.types.len();
            let spelt = sub.signature.iter().all(|name| {
                let t = log.find_type(name);
                self.types.extend(t);
                t.is_some()
            });
            if !spelt {
                self.types.truncate(start);
            }
            self.sigs
                .push(spelt.then(|| Run::tail_of(&self.types, start)));
        }
    }

    /// Spell one more signature, the `types` of an instance of the log: a
    /// subroutine just learned from it.
    fn push(&mut self, types: &[u32]) {
        let start = self.types.len();
        self.types.extend_from_slice(types);
        self.sigs.push(Some(Run::tail_of(&self.types, start)));
    }

    /// The position of the first subroutine whose signature `inst` carries.
    fn position(&self, inst: Instance<'_>) -> Option<usize> {
        let types = inst.type_numbers();
        // Type numbers are distinct per instance and per signature, so equal
        // sizes plus containment is set equality.
        let carries = |run: &Run| {
            run.len as usize == types.len() && types.iter().all(|t| run.of(&self.types).contains(t))
        };
        self.sigs
            .iter()
            .position(|sig| sig.as_ref().is_some_and(carries))
    }
    // lint: ingest-hot(end)
}

/// Algorithm 2 as first written — a scan over every open instance with
/// string sets — kept as the reference [`split_instances_into`] is tested
/// against.
#[cfg(test)]
pub(crate) fn split_instances_oracle(
    messages: &[&extract::IntelMessage],
) -> Vec<SubroutineInstance> {
    let mut instances: Vec<SubroutineInstance> = Vec::new();
    // NONE bucket is instance 0.
    instances.push(SubroutineInstance {
        id_values: BTreeSet::new(),
        signature: Signature::new(),
        message_indices: Vec::new(),
        keys: Vec::new(),
    });
    for (mi, m) in messages.iter().enumerate() {
        let ids: BTreeSet<String> = m
            .identifiers
            .iter()
            .map(|(t, v)| format!("{t}:{v}"))
            .collect();
        let types: BTreeSet<String> = m.identifiers.iter().map(|(t, _)| t.clone()).collect();
        if ids.is_empty() {
            instances[0].message_indices.push(mi);
            instances[0].keys.push(m.key_id);
            continue;
        }
        let found = instances[1..]
            .iter()
            .position(|inst| ids.is_subset(&inst.id_values) || inst.id_values.is_subset(&ids))
            .map(|p| p + 1);
        match found {
            Some(ii) => {
                let inst = &mut instances[ii];
                inst.id_values.extend(ids);
                inst.signature.extend(types);
                inst.message_indices.push(mi);
                inst.keys.push(m.key_id);
            }
            None => instances.push(SubroutineInstance {
                id_values: ids,
                signature: types,
                message_indices: vec![mi],
                keys: vec![m.key_id],
            }),
        }
    }
    if instances[0].message_indices.is_empty() {
        instances.remove(0);
    }
    instances
}

#[cfg(test)]
impl SubroutineSet {
    /// [`SubroutineSet::train_instances`] from rendered instances, for
    /// training a reference model through the oracle.
    pub(crate) fn train_rendered(&mut self, instances: &[SubroutineInstance]) {
        for inst in instances {
            let known = self.subs.iter().position(|s| s.signature == inst.signature);
            let i = known.unwrap_or_else(|| {
                self.subs.push(Subroutine {
                    signature: inst.signature.clone(),
                    ..Default::default()
                });
                self.subs.len() - 1
            });
            self.subs[i].update(&inst.keys);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use extract::IntelMessage;
    use proptest::prelude::*;

    /// Every row of `log`, the way a one-group session routes them.
    pub(crate) fn all_rows(log: &SessionLog) -> Vec<u32> {
        (0..log.len() as u32).collect()
    }

    /// [`split_instances_into`] of `rows` of `log`, into a split of its own.
    pub(crate) fn split_instances(log: &SessionLog, rows: &[u32]) -> InstanceSplit {
        let mut split = InstanceSplit::default();
        split_instances_into(log, rows, &mut split);
        split
    }

    pub(crate) fn msg(key: u32, ids: &[(&str, &str)]) -> IntelMessage {
        IntelMessage {
            key_id: KeyId(key),
            session: "s".into(),
            ts_ms: 0,
            identifiers: ids
                .iter()
                .map(|(t, v)| (t.to_string(), v.to_string()))
                .collect(),
            values: vec![],
            localities: vec![],
            entities: vec![],
            operations: vec![],
            text: String::new(),
        }
    }

    #[test]
    fn figure5_subroutine_evolution() {
        // Session 1 has Seq1 = Seq2 = [A, B, C, D]; session 2 has
        // Seq3 = [A, C, B, D] (B/C become parallel) and Seq4 = [A, B, C]
        // (D stops being critical).
        let (a, b, c, d) = (KeyId(0), KeyId(1), KeyId(2), KeyId(3));
        let mut sub = Subroutine::default();
        sub.update(&[a, b, c, d]);
        sub.update(&[a, b, c, d]);
        assert!(sub.is_before(a, b) && sub.is_before(b, c) && sub.is_before(c, d));
        assert_eq!(sub.critical.len(), 4);

        sub.update(&[a, c, b, d]); // Seq3: B and C interchange
        assert!(sub.is_before(a, b) && sub.is_before(a, c));
        assert!(!sub.is_before(b, c) && !sub.is_before(c, b));
        assert!(sub.is_before(b, d) && sub.is_before(c, d));
        assert_eq!(sub.critical.len(), 4);

        sub.update(&[a, b, c]); // Seq4: no D
        assert!(!sub.critical.contains(&d));
        assert!(sub.critical.contains(&a));
        assert_eq!(sub.instances, 4);
    }

    #[test]
    fn instance_splitting_by_identifier_values() {
        // Two concurrent fetcher instances interleave; identifier values
        // route messages to the right instance.
        let ms = [
            msg(0, &[("FETCHER", "1")]),
            msg(0, &[("FETCHER", "2")]),
            msg(1, &[("FETCHER", "1")]),
            msg(1, &[("FETCHER", "2")]),
            msg(2, &[]),
        ];
        let log = SessionLog::from_messages(&ms);
        let insts = split_instances(&log, &all_rows(&log)).render(&log);
        assert_eq!(insts.len(), 3);
        let none = insts.iter().find(|i| i.signature.is_empty()).unwrap();
        assert_eq!(none.keys, [KeyId(2)]);
        for i in insts.iter().filter(|i| !i.signature.is_empty()) {
            assert_eq!(i.keys, [KeyId(0), KeyId(1)]);
            assert_eq!(i.signature, BTreeSet::from(["FETCHER".to_string()]));
        }
    }

    #[test]
    fn subset_identifier_sets_join_one_instance() {
        // A message carrying {task} joins the instance already holding
        // {task, attempt} (⊆-comparability, Algorithm 2 line 9–10).
        let ms = [
            msg(0, &[("TASK", "t1")]),
            msg(1, &[("TASK", "t1"), ("ATTEMPT", "a1")]),
            msg(2, &[("ATTEMPT", "a1")]),
        ];
        let log = SessionLog::from_messages(&ms);
        let insts = split_instances(&log, &all_rows(&log)).render(&log);
        assert_eq!(insts.len(), 1, "{insts:?}");
        assert_eq!(insts[0].keys, [KeyId(0), KeyId(1), KeyId(2)]);
        assert_eq!(
            insts[0].signature,
            BTreeSet::from(["TASK".to_string(), "ATTEMPT".to_string()])
        );
    }

    #[test]
    fn set_trains_per_signature() {
        let mut set = SubroutineSet::default();
        let s1 = [
            msg(0, &[("FETCHER", "1")]),
            msg(1, &[("FETCHER", "1")]),
            msg(9, &[]),
        ];
        let log = SessionLog::from_messages(&s1);
        let mut sigs = SignatureNumbers::default();
        set.train_instances(&mut sigs, split_instances(&log, &all_rows(&log)).iter(&log));
        set.train_instances(&mut sigs, split_instances(&log, &all_rows(&log)).iter(&log));
        assert_eq!(set.len(), 2); // FETCHER signature + NONE
        let fet = set.get(&BTreeSet::from(["FETCHER".to_string()])).unwrap();
        assert_eq!(fet.keys, [KeyId(0), KeyId(1)]);
        assert!(fet.is_before(KeyId(0), KeyId(1)));
    }

    #[test]
    fn new_key_in_later_instance_is_not_critical() {
        let mut sub = Subroutine::default();
        sub.update(&[KeyId(0), KeyId(1)]);
        sub.update(&[KeyId(0), KeyId(1), KeyId(5)]);
        assert!(sub.keys.contains(&KeyId(5)));
        assert!(!sub.critical.contains(&KeyId(5)));
        assert!(sub.critical.contains(&KeyId(0)));
    }

    #[test]
    fn repeated_key_uses_first_occurrence() {
        let mut sub = Subroutine::default();
        sub.update(&[KeyId(0), KeyId(1), KeyId(0)]);
        // first(0)=0 < first(1)=1 → before holds even though 0 also appears
        // after 1.
        assert!(sub.is_before(KeyId(0), KeyId(1)));
        assert_eq!(sub.keys, [KeyId(0), KeyId(1)]);
    }

    #[test]
    fn widened_instance_wins_over_a_newer_one() {
        // {a1,b1,c1} is a superset of both open instances, joins the older
        // and widens it; {b1} then fits both and must again go to the older,
        // although the newer instance was listed under b1 first.
        let ms = [
            msg(0, &[("A", "1")]),
            msg(1, &[("B", "1")]),
            msg(2, &[("A", "1"), ("B", "1"), ("C", "1")]),
            msg(3, &[("B", "1")]),
        ];
        let refs: Vec<&IntelMessage> = ms.iter().collect();
        let log = SessionLog::from_messages(&ms);
        let insts = split_instances(&log, &all_rows(&log)).render(&log);
        assert_eq!(insts, split_instances_oracle(&refs));
        assert_eq!(insts[0].keys, [KeyId(0), KeyId(2), KeyId(3)]);
        assert_eq!(insts[1].keys, [KeyId(1)]);
    }

    #[test]
    fn coinciding_spellings_are_one_value() {
        // ("T", "1:2") and ("T:1", "2") both spell `T:1:2`: one value, two
        // identifier types.
        let ms = [msg(0, &[("T", "1:2")]), msg(1, &[("T:1", "2")])];
        let refs: Vec<&IntelMessage> = ms.iter().collect();
        let log = SessionLog::from_messages(&ms);
        let split = split_instances(&log, &all_rows(&log));
        assert_eq!(split.render(&log), split_instances_oracle(&refs));
        assert_eq!(split.len(), 1);
        let inst = split.iter(&log).next().unwrap();
        assert_eq!(inst.id_values(), BTreeSet::from(["T:1:2".to_string()]));
        assert_eq!(
            inst.signature(),
            BTreeSet::from(["T".to_string(), "T:1".to_string()])
        );
        let set = SubroutineSet {
            subs: [BTreeSet::from(["T".to_string()]), inst.signature()]
                .map(|signature| Subroutine {
                    signature,
                    ..Default::default()
                })
                .into(),
        };
        let mut sigs = SignatureNumbers::default();
        sigs.spell(&set, &log);
        assert_eq!(set.of_instance(&sigs, inst), Some(&set.subs[1]));
    }

    /// One client's 20,000-line session — a distinct TASK value per line and
    /// one STAGE value shared by all — must not hold its shard for seconds:
    /// every line opens an instance and every instance holds the shared
    /// value, the worst case for the search. The scan over string sets took
    /// 12 s on this in a release build.
    #[test]
    fn long_session_sharing_one_value_splits_in_bounded_time() {
        let ms: Vec<IntelMessage> = (0..20_000)
            .map(|i| msg(0, &[("TASK", &i.to_string()), ("STAGE", "0")]))
            .collect();
        let log = SessionLog::from_messages(&ms);
        let rows = all_rows(&log);
        let started = std::time::Instant::now();
        let split = split_instances(&log, &rows);
        let took = started.elapsed();
        assert_eq!(split.len(), 20_000);
        assert!(took.as_secs_f64() < 5.0, "split took {took:?}");
    }

    fn identifier() -> impl Strategy<Value = (&'static str, &'static str)> {
        // Small alphabets, so sets nest, widen and repeat; `T`/`T:1` with
        // `1:2`/`2` spell the same scoped value under two types.
        (
            prop_oneof![Just("TASK"), Just("STAGE"), Just("T"), Just("T:1")],
            prop_oneof![Just("1"), Just("2"), Just("3"), Just("1:2")],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        /// The indexed kernel over a group's rows of the session log is the
        /// scan over that group's messages, for every input: same instances
        /// in the same order with the same strings; the views agree with
        /// what they render to. Every third message is another group's, so
        /// the log numbers values the split never meets — and splitting
        /// that other group into the same arrays first, as the trainer does
        /// with a session's groups, changes nothing about this one. Before
        /// either, the thread splits another log with more values, numbered
        /// in another order: nothing it leaves in the thread's working
        /// arrays reaches this case.
        #[test]
        fn split_equals_oracle(
            raw in prop::collection::vec(
                (0u32..6, prop::collection::vec(identifier(), 0..5)),
                0..40,
            )
        ) {
            let ms: Vec<IntelMessage> = raw.iter().map(|(k, ids)| msg(*k, ids)).collect();
            let log = SessionLog::from_messages(&ms);
            let fresh: Vec<String> = (0..8).map(|i| format!("p{i}")).collect();
            let mut wider: Vec<IntelMessage> = ms.iter().rev().cloned().collect();
            wider.extend(fresh.iter().map(|v| msg(6, &[("TASK", v), ("STAGE", "1")])));
            let wider = SessionLog::from_messages(&wider);
            prop_assert!(wider.value_count() > log.value_count());
            split_instances(&wider, &all_rows(&wider));

            let rows: Vec<u32> = all_rows(&log).into_iter().filter(|r| r % 3 != 2).collect();
            let refs: Vec<&IntelMessage> = rows.iter().map(|&r| &ms[r as usize]).collect();
            let split = split_instances(&log, &rows);
            let rendered = split.render(&log);
            prop_assert_eq!(&rendered, &split_instances_oracle(&refs));
            prop_assert_eq!(split.len(), rendered.len());
            let signatures = SubroutineSet {
                subs: rendered
                    .iter()
                    .map(|inst| Subroutine {
                        signature: inst.signature.clone(),
                        ..Default::default()
                    })
                    .collect(),
            };
            let mut sigs = SignatureNumbers::default();
            sigs.spell(&signatures, &log);
            let signature_of = |view| signatures.of_instance(&sigs, view).map(|s| &s.signature);
            for (view, inst) in split.iter(&log).zip(&rendered) {
                prop_assert_eq!(view.keys(), inst.keys.as_slice());
                prop_assert_eq!(signature_of(view), Some(&inst.signature));
            }

            let others: Vec<u32> = all_rows(&log).into_iter().filter(|r| r % 3 == 2).collect();
            let mut shared = split_instances(&log, &others);
            let range = split_instances_into(&log, &rows, &mut shared);
            prop_assert_eq!(range.end, shared.len());
            prop_assert_eq!(&shared.render(&log)[range.clone()], &rendered[..]);
            for (view, inst) in shared.instances(&log, range).zip(&rendered) {
                prop_assert_eq!(view.keys(), inst.keys.as_slice());
                prop_assert_eq!(signature_of(view), Some(&inst.signature));
            }
        }
    }

    proptest! {
        /// An instance's subroutine found through the signatures spelt in
        /// the log's type numbers is the first whose string signature equals
        /// the instance's. The learned set comes from another log, so some
        /// of its names are not this log's types; an unlearned name and the
        /// NONE signature are added; and another set is spelt in the same
        /// arrays first. Training through the numbers learns what training
        /// through the strings does.
        #[test]
        fn numbered_signatures_match_as_strings_do(
            learned in prop::collection::vec(
                (0u32..4, prop::collection::vec(identifier(), 0..3)),
                0..20,
            ),
            checked in prop::collection::vec(
                (0u32..4, prop::collection::vec(identifier(), 0..3)),
                0..20,
            ),
        ) {
            let session = |raw: &[(u32, Vec<(&str, &str)>)]| {
                let ms: Vec<IntelMessage> = raw.iter().map(|(k, ids)| msg(*k, ids)).collect();
                SessionLog::from_messages(&ms)
            };
            let (learned, checked) = (session(&learned), session(&checked));
            let mut sigs = SignatureNumbers::default();
            let mut set = SubroutineSet::default();
            set.train_instances(&mut sigs, split_instances(&learned, &all_rows(&learned)).iter(&learned));
            let mut by_strings = SubroutineSet::default();
            by_strings.train_rendered(&split_instances(&learned, &all_rows(&learned)).render(&learned));
            prop_assert_eq!(&set, &by_strings);

            let mut matched = set.clone();
            for names in [vec!["ATTEMPT"], vec!["TASK", "ATTEMPT"], vec![]] {
                matched.subs.push(Subroutine {
                    signature: names.into_iter().map(str::to_string).collect(),
                    ..Default::default()
                });
            }
            let split = split_instances(&checked, &all_rows(&checked));
            let other = SubroutineSet { subs: matched.subs[1..].to_vec() };
            sigs.spell(&other, &checked);
            sigs.spell(&matched, &checked);
            for inst in split.iter(&checked) {
                let by_strings = matched.subs.iter().find(|s| s.signature == inst.signature());
                prop_assert_eq!(matched.of_instance(&sigs, inst), by_strings);
            }

            set.train_instances(&mut sigs, split.iter(&checked));
            by_strings.train_rendered(&split.render(&checked));
            prop_assert_eq!(set, by_strings);
        }
    }

    proptest! {
        /// `FirstSeen` answers as a first-occurrence map does, on either
        /// side of its scan/map switch.
        #[test]
        fn first_seen_equals_map(seq in prop::collection::vec(0u32..12, 0..40)) {
            let seq: Vec<KeyId> = seq.into_iter().map(KeyId).collect();
            let mut map: HashMap<KeyId, usize> = HashMap::new();
            let mut order = Vec::new();
            for (i, &k) in seq.iter().enumerate() {
                map.entry(k).or_insert_with(|| {
                    order.push(k);
                    i
                });
            }
            let first = FirstSeen::of(&seq);
            for k in (0..12).map(KeyId) {
                prop_assert_eq!(first.get(k), map.get(&k).copied());
            }
            prop_assert_eq!(first.distinct().collect::<Vec<_>>(), order);
        }
    }
}
