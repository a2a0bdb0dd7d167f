//! The per-line record: what detection and training retain of a matched line.
//!
//! The paper's Intel Message (§3, Fig. 4) is "the key plus the values at its
//! variable positions", and of a matched line Algorithm 2 (§4.1) and the
//! lifespan checks (§4.2) read only the key id, the timestamp and the
//! identifier `(type, value)` pairs. A [`SessionLog`] holds exactly that for
//! one session: a flat [`Row`] per line over one array of
//! `(type number, value number)` pairs, the text of every distinct type and
//! value kept once in one buffer. [`SessionLog::push_line`] fills a row
//! straight from the line's token spans; no token `String` and no
//! [`IntelMessage`] is built. The owned `IntelMessage` stays for the
//! consumers that want strings (an unexpected message being reported and
//! diagnosed, the Stitch baseline) and as the oracle a row is tested
//! against.
//!
//! # Numbering
//!
//! Two identifiers are the same value when their `type:value` spellings are
//! the same string ('executor 3' and 'task 3' differ, `attempt_…_m_000003_0`
//! scopes itself, and `("T", "1:2")` is `("T:1", "2")`), so a value is
//! numbered under that spelling. Numbers are per session and dense, so
//! Algorithm 2 indexes arrays with them.

use crate::fields::FieldCategory;
use crate::intelkey::{IntelKey, IntelMessage};
use lognlp::Span;
use spell::KeyId;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// A run of a flat array shared by many owners (a row's identifiers among
/// all the log's, an instance's keys among all the split's).
#[derive(Debug, Clone, Copy, Default)]
pub struct Run {
    /// Index of the first element.
    pub start: u32,
    /// Number of elements.
    pub len: u32,
}

impl Run {
    /// The run as an index range.
    pub fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }

    /// The run's elements of `array`.
    pub fn of<T>(self, array: &[T]) -> &[T] {
        &array[self.range()]
    }

    /// The run from `start` to the end of `array`.
    pub fn tail_of<T>(array: &[T], start: usize) -> Run {
        Run {
            start: number(start),
            len: number(array.len() - start),
        }
    }
}

/// `n` as one of a session's 32-bit numbers (rows, values, instances, array
/// positions). Each is bounded by the text of the session, which at 2³² would
/// not be in memory to log.
pub fn number(n: usize) -> u32 {
    u32::try_from(n).expect("a session's rows, instances and identifiers number below 2^32")
}

/// One matched line of a session.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// The Intel Key the line matched.
    pub key_id: KeyId,
    /// Timestamp (ms).
    pub ts_ms: u64,
    /// Its identifiers, in the log's pair array.
    ids: Run,
}

/// The matched lines of one session, in arrival order. See the module docs.
#[derive(Debug, Default)]
pub struct SessionLog {
    rows: Vec<Row>,
    /// `(type number, value number)` of every identifier of every row.
    ids: Vec<(u32, u32)>,
    /// Every type name and every value's `type:value` spelling, each once.
    text: String,
    /// Type names by number.
    types: Vec<Run>,
    /// Spellings by value number.
    values: Vec<Run>,
    /// Open-addressed index of `values` by spelling: value number + 1, or 0
    /// for a free slot. A power of two long, at most half full.
    slots: Vec<u32>,
    /// Values come off the wire, so they are hashed under a random key.
    hasher: RandomState,
}

// lint: ingest-hot(begin)

impl SessionLog {
    /// Append the row of a line that matched `key`: `spans` are the line's
    /// token spans over `message`, read at the key's identifier positions.
    /// The row's identifiers are those of
    /// `IntelMessage::instantiate(key, tokens of message, ..)`. Allocates
    /// only to grow the log's arrays.
    pub fn push_line(&mut self, key: &IntelKey, ts_ms: u64, message: &str, spans: &[Span]) {
        let identifiers = key
            .fields
            .iter()
            .filter(|f| f.category == FieldCategory::Identifier)
            .filter_map(|f| {
                let value = spans.get(f.pos)?.of(message);
                Some((f.id_type.as_deref().unwrap_or("ID"), value))
            });
        self.push_row(key.key_id, ts_ms, identifiers);
    }

    /// Append a row from its identifier `(type, value)` pairs.
    pub fn push_row<'s>(
        &mut self,
        key_id: KeyId,
        ts_ms: u64,
        identifiers: impl IntoIterator<Item = (&'s str, &'s str)>,
    ) {
        let start = self.ids.len();
        for (ty, value) in identifiers {
            let pair = (self.type_number(ty), self.value_number(ty, value));
            self.ids.push(pair);
        }
        let ids = Run::tail_of(&self.ids, start);
        number(self.rows.len()); // readers index rows with 32-bit numbers
        self.rows.push(Row { key_id, ts_ms, ids });
    }

    /// Number `name` among the type names, adding it if new. They are a
    /// handful, so a scan beats hashing.
    fn type_number(&mut self, name: &str) -> u32 {
        let known = self
            .types
            .iter()
            .position(|&t| self.text[t.range()] == *name);
        let n = known.unwrap_or_else(|| {
            let start = self.text.len();
            self.text.push_str(name);
            self.types.push(Run::tail_of(self.text.as_bytes(), start));
            self.types.len() - 1
        });
        number(n)
    }

    fn hash(&self, spelling: Run) -> usize {
        self.hasher.hash_one(&self.text[spelling.range()]) as usize
    }

    /// Number the value spelled `ty:value`, adding it if new.
    fn value_number(&mut self, ty: &str, value: &str) -> u32 {
        if (self.values.len() + 1) * 2 > self.slots.len() {
            self.grow_slots();
        }
        // Spelled at the end of the text, where it stays if it is new.
        let start = self.text.len();
        self.text.push_str(ty);
        self.text.push(':');
        self.text.push_str(value);
        let spelled = Run::tail_of(self.text.as_bytes(), start);
        let mask = self.slots.len() - 1;
        let mut at = self.hash(spelled) & mask;
        while let Some(n) = self.slots[at].checked_sub(1) {
            if self.text[self.values[n as usize].range()] == self.text[spelled.range()] {
                self.text.truncate(start);
                return n;
            }
            at = (at + 1) & mask;
        }
        self.values.push(spelled);
        self.slots[at] = number(self.values.len());
        number(self.values.len() - 1)
    }

    /// Double the slot table and re-place every value.
    fn grow_slots(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        // lint: allow(alloc) — amortised doubling, once per doubling of the
        // session's distinct values
        let mut slots = vec![0; len];
        for (n, &spelling) in self.values.iter().enumerate() {
            let mut at = self.hash(spelling) & (len - 1);
            while slots[at] != 0 {
                at = (at + 1) & (len - 1);
            }
            slots[at] = number(n + 1);
        }
        self.slots = slots;
    }
}

// lint: ingest-hot(end)

impl SessionLog {
    /// The log of already-instantiated messages: each one's key, timestamp
    /// and identifier pairs.
    pub fn from_messages(messages: &[IntelMessage]) -> SessionLog {
        let mut log = SessionLog::default();
        for m in messages {
            let ids = m.identifiers.iter().map(|(t, v)| (t.as_str(), v.as_str()));
            log.push_row(m.key_id, m.ts_ms, ids);
        }
        log
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no line was logged.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, in arrival order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The `(type number, value number)` pairs of `row`, in field order,
    /// repeats included.
    pub fn identifiers(&self, row: &Row) -> &[(u32, u32)] {
        row.ids.of(&self.ids)
    }

    /// The `(type, value)` strings of `row`'s identifiers: what
    /// [`IntelMessage::identifiers`] holds for the same line.
    pub fn identifier_strs<'a>(
        &'a self,
        row: &Row,
    ) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        self.identifiers(row).iter().map(move |&(ty, value)| {
            let ty = self.type_name(ty);
            (ty, &self.scoped_value(value)[ty.len() + 1..])
        })
    }

    /// How many distinct values the session has; value numbers are below it.
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// The identifier type numbered `ty`.
    pub fn type_name(&self, ty: u32) -> &str {
        &self.text[self.types[ty as usize].range()]
    }

    /// The `type:value` spelling of the value numbered `value`.
    pub fn scoped_value(&self, value: u32) -> &str {
        &self.text[self.values[value as usize].range()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::VarField;

    /// A key of `len` star tokens with an identifier of each given type at
    /// each given position.
    fn key(len: usize, identifiers: &[(usize, Option<&str>)]) -> IntelKey {
        IntelKey {
            key_id: KeyId(7),
            tokens: vec!["*".to_string(); len],
            tags: Vec::new(),
            entities: Vec::new(),
            fields: identifiers
                .iter()
                .map(|&(pos, ty)| VarField {
                    pos,
                    category: FieldCategory::Identifier,
                    id_type: ty.map(str::to_string),
                    name: None,
                    locality: None,
                })
                .collect(),
            operations: Vec::new(),
        }
    }

    fn logged(key: &IntelKey, message: &str) -> (SessionLog, IntelMessage) {
        let mut spans = Vec::new();
        lognlp::tokenize_spans(message, &mut spans);
        let mut log = SessionLog::default();
        log.push_line(key, 42, message, &spans);
        let oracle = IntelMessage::instantiate(key, &spell::tokenize_message(message), "s", 42);
        (log, oracle)
    }

    fn assert_row_is_oracle(key: &IntelKey, message: &str) -> SessionLog {
        let (log, oracle) = logged(key, message);
        assert_eq!(log.len(), 1);
        let row = &log.rows()[0];
        assert_eq!((row.key_id, row.ts_ms), (oracle.key_id, oracle.ts_ms));
        let pairs = log
            .identifier_strs(row)
            .map(|(t, v)| (t.to_string(), v.to_string()));
        assert_eq!(pairs.collect::<Vec<_>>(), oracle.identifiers, "{message:?}");
        log
    }

    #[test]
    fn type_containing_a_colon_shares_the_value_of_its_other_spelling() {
        let k = key(2, &[(0, Some("T")), (1, Some("T:1"))]);
        let log = assert_row_is_oracle(&k, "1:2 2");
        let ids = log.identifiers(&log.rows()[0]);
        assert_ne!(ids[0].0, ids[1].0, "two types");
        assert_eq!(ids[0].1, ids[1].1, "one value: both spell T:1:2");
        assert_eq!(log.scoped_value(ids[0].1), "T:1:2");
        assert_eq!(log.value_count(), 1);
    }

    #[test]
    fn duplicate_identifiers_are_kept_and_share_a_number() {
        let k = key(3, &[(0, Some("TASK")), (1, Some("TASK")), (2, None)]);
        let log = assert_row_is_oracle(&k, "7 7 7");
        let ids = log.identifiers(&log.rows()[0]);
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0], ids[1]);
        assert_eq!(log.type_name(ids[2].0), "ID");
        assert_ne!(ids[2].1, ids[0].1, "ID:7 is not TASK:7");
    }

    #[test]
    fn key_longer_than_the_line_skips_the_missing_positions() {
        let k = key(6, &[(1, Some("TASK")), (5, Some("STAGE"))]);
        let log = assert_row_is_oracle(&k, "task 3");
        assert_eq!(log.identifiers(&log.rows()[0]).len(), 1);
    }

    #[test]
    fn empty_message_logs_a_row_without_identifiers() {
        let log = assert_row_is_oracle(&key(1, &[(0, Some("TASK"))]), "");
        assert!(log.identifiers(&log.rows()[0]).is_empty());
        assert_eq!(log.value_count(), 0);
    }

    #[test]
    fn values_keep_their_numbers_as_the_slot_table_grows() {
        let mut log = SessionLog::default();
        let values: Vec<String> = (0..1000).map(|i| format!("attempt_{i}")).collect();
        for round in 0..2 {
            for v in &values {
                log.push_row(KeyId(0), round, [("ATTEMPT", v.as_str())]);
            }
        }
        assert_eq!(log.value_count(), values.len());
        for (i, row) in log.rows().iter().enumerate() {
            let n = (i % values.len()) as u32;
            assert_eq!(log.identifiers(row), [(0, n)]);
            assert_eq!(
                log.scoped_value(n),
                format!("ATTEMPT:{}", values[n as usize])
            );
        }
    }
}
