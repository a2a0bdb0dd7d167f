//! Tiny shared CLI flag parsing.
//!
//! Every `intellog` subcommand pulls its flags through [`FlagSet`], which
//! accepts both `--flag value` and `--flag=value` spellings and leaves the
//! remaining positionals untouched and in order. A `--flag` that no
//! subcommand asked for is refused by name, so a misspelt flag and its
//! value are never read as positionals.

/// An argument list being consumed flag by flag.
pub struct FlagSet {
    args: Vec<String>,
}

impl FlagSet {
    /// Wrap an argument slice.
    pub fn new(args: &[String]) -> FlagSet {
        FlagSet {
            args: args.to_vec(),
        }
    }

    /// Remove `--flag value` or `--flag=value` and return the value.
    /// A trailing `--flag` with no value yields `Some("")` so callers can
    /// distinguish "absent" from "present but empty".
    pub fn value(&mut self, flag: &str) -> Option<String> {
        let prefix = format!("{flag}=");
        let mut i = 0;
        while i < self.args.len() {
            if let Some(v) = self.args[i].strip_prefix(&prefix) {
                let v = v.to_string();
                self.args.remove(i);
                return Some(v);
            }
            if self.args[i] == flag {
                self.args.remove(i);
                let v = if i < self.args.len() {
                    self.args.remove(i)
                } else {
                    String::new()
                };
                return Some(v);
            }
            i += 1;
        }
        None
    }

    /// Remove every occurrence of a repeatable `--flag value` /
    /// `--flag=value`, in order. Empty when absent.
    pub fn values(&mut self, flag: &str) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(v) = self.value(flag) {
            out.push(v);
        }
        out
    }

    /// Remove a boolean `--flag`; `true` if it was present.
    pub fn bool(&mut self, flag: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|a| a != flag);
        self.args.len() != before
    }

    /// Parse a flag value, with a default when absent and a helpful error
    /// when unparseable.
    pub fn parse<T: std::str::FromStr>(&mut self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for {flag}")),
        }
    }

    /// The remaining (positional) arguments, or an error naming the
    /// first leftover `--flag`.
    pub fn finish(self) -> Result<Vec<String>, String> {
        match self.args.iter().find(|a| a.starts_with("--")) {
            Some(flag) => {
                let name = flag.split_once('=').map_or(flag.as_str(), |(name, _)| name);
                Err(format!("unknown flag {name}"))
            }
            None => Ok(self.args),
        }
    }

    /// [`FlagSet::finish`] for a subcommand that takes no positionals.
    pub fn finish_empty(self) -> Result<(), String> {
        let extra = self.finish()?;
        if extra.is_empty() {
            Ok(())
        } else {
            Err(format!("unexpected arguments: {extra:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn space_and_equals_forms_both_work() {
        let mut f = FlagSet::new(&args(&["--model", "m.json", "a.log"]));
        assert_eq!(f.value("--model").as_deref(), Some("m.json"));
        assert_eq!(f.finish(), Ok(args(&["a.log"])));

        let mut f = FlagSet::new(&args(&["--model=m.json", "a.log"]));
        assert_eq!(f.value("--model").as_deref(), Some("m.json"));
        assert_eq!(f.finish(), Ok(args(&["a.log"])));
    }

    #[test]
    fn equals_form_may_carry_empty_or_equals_heavy_values() {
        let mut f = FlagSet::new(&args(&["--out=", "x"]));
        assert_eq!(f.value("--out").as_deref(), Some(""));
        let mut f = FlagSet::new(&args(&["--expr=a=b=c"]));
        assert_eq!(f.value("--expr").as_deref(), Some("a=b=c"));
    }

    #[test]
    fn absent_flags_leave_positionals_alone() {
        let mut f = FlagSet::new(&args(&["a.log", "b.log"]));
        assert_eq!(f.value("--model"), None);
        assert!(!f.bool("--json"));
        assert_eq!(f.finish(), Ok(args(&["a.log", "b.log"])));
    }

    #[test]
    fn repeatable_flags_collect_in_order() {
        let mut f = FlagSet::new(&args(&[
            "--tenant-model",
            "acme=a.ilm",
            "--tenant-model=globex=g.ilm",
            "x",
        ]));
        assert_eq!(
            f.values("--tenant-model"),
            args(&["acme=a.ilm", "globex=g.ilm"])
        );
        assert_eq!(f.values("--tenant-model"), Vec::<String>::new());
        assert_eq!(f.finish(), Ok(args(&["x"])));
    }

    #[test]
    fn bool_flags_are_removed() {
        let mut f = FlagSet::new(&args(&["--json", "a.log"]));
        assert!(f.bool("--json"));
        assert_eq!(f.finish(), Ok(args(&["a.log"])));
    }

    #[test]
    fn parse_applies_defaults_and_reports_garbage() {
        let mut f = FlagSet::new(&args(&["--shards=8"]));
        assert_eq!(f.parse("--shards", 4usize), Ok(8));
        assert_eq!(f.parse("--rate", 100u64), Ok(100));
        let mut f = FlagSet::new(&args(&["--shards=lots"]));
        assert!(f.parse("--shards", 4usize).is_err());
    }
}
