//! A small, dependency-free `--key value` argument parser.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// The experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Centralized federated averaging over a rounds scenario.
    FedAvg,
    /// FedProx (FedAvg + proximal term) over a rounds scenario.
    FedProx,
    /// Local-only training (no communication) over a rounds scenario.
    Local,
    /// Run a declarative scenario (`--scenario <file>` or
    /// `--preset <name>`).
    Run,
    /// Run a scenario's specialization analytics and print the cluster
    /// assignment table (`--scenario <file>` or `--preset <name>`).
    Analyze,
    /// Expand and run a parameter-grid sweep (`dagfl sweep <file>` or
    /// `--preset-base <name> --axes <spec>`).
    Sweep,
    /// List scenario presets, or check/dump scenario files
    /// (`--check <dir>` / `--dump <dir>`).
    Scenarios,
    /// Walk-evaluation performance smoke; writes `BENCH_walk.json`.
    Perf,
    /// Networked DAG-FL peer (gossip over TCP, tracker discovery).
    Peer,
    /// Peer-discovery tracker for the networked mode.
    Tracker,
    /// Print usage.
    Help,
}

/// Every subcommand: its spelling on the command line and the titles of
/// the [`USAGE`] sections that document its flags. A command accepts
/// exactly the flags its sections list (plus `--help`).
const COMMANDS: [(&str, Command, &[&str]); 11] = [
    (
        "run",
        Command::Run,
        &["SCENARIO FLAGS", "RUN FLAGS", "OVERRIDES", "SCENARIOS"],
    ),
    ("sweep", Command::Sweep, &["SWEEP FLAGS", "OVERRIDES"]),
    (
        "analyze",
        Command::Analyze,
        &["SCENARIO FLAGS", "ANALYZE FLAGS", "OVERRIDES"],
    ),
    (
        "scenarios",
        Command::Scenarios,
        &["SCENARIOS FLAGS", "SCENARIOS"],
    ),
    (
        "fedavg",
        Command::FedAvg,
        &["SCENARIO FLAGS", "BASELINE FLAGS", "OVERRIDES"],
    ),
    (
        "fedprox",
        Command::FedProx,
        &[
            "SCENARIO FLAGS",
            "BASELINE FLAGS",
            "FEDPROX FLAGS",
            "OVERRIDES",
        ],
    ),
    ("local", Command::Local, &["SCENARIO FLAGS", "OVERRIDES"]),
    ("perf", Command::Perf, &["PERF FLAGS"]),
    (
        "peer",
        Command::Peer,
        &["SCENARIO FLAGS", "PEER FLAGS", "OVERRIDES"],
    ),
    ("tracker", Command::Tracker, &["TRACKER FLAGS"]),
    ("help", Command::Help, &[]),
];

/// Subcommands folded into `dagfl run`, with an invocation that
/// replaces each.
const REMOVED: [(&str, &str); 2] = [
    ("dag", "dagfl run --preset table1-fmnist --set alpha=1"),
    (
        "async",
        "dagfl run --preset async-delay2 --set output.csv=async-delay2",
    ),
];

impl Command {
    fn parse(word: &str) -> Option<Self> {
        match word {
            "--help" | "-h" => Some(Command::Help),
            _ => COMMANDS
                .iter()
                .find(|(w, _, _)| *w == word)
                .map(|&(_, c, _)| c),
        }
    }

    /// This subcommand's row of [`COMMANDS`].
    fn entry(self) -> (&'static str, &'static [&'static str]) {
        COMMANDS
            .iter()
            .find(|(_, c, _)| *c == self)
            .map(|&(word, _, sections)| (word, sections))
            .expect("every subcommand is listed in COMMANDS")
    }

    /// The subcommand's spelling on the command line.
    pub(crate) fn word(self) -> &'static str {
        self.entry().0
    }

    /// The flags this subcommand accepts: every `--flag` its [`USAGE`]
    /// sections list at the flag column, plus `--help`.
    pub(crate) fn flags(self) -> Vec<&'static str> {
        let mut flags = vec!["help"];
        for title in self.entry().1 {
            for line in usage_section(title).unwrap_or_default() {
                if let Some(rest) = line.strip_prefix("    --") {
                    flags.push(rest.split_whitespace().next().unwrap_or(rest));
                }
            }
        }
        flags
    }
}

/// The lines of the [`USAGE`] section titled `title` (its header line
/// reads `TITLE:` or `TITLE (...):`), title included, up to the next
/// section.
fn usage_section(title: &str) -> Option<Vec<&'static str>> {
    let is_header = |line: &str| line.split([':', '(']).next().map(str::trim) == Some(title);
    let mut lines = USAGE.lines().skip_while(|line| !is_header(line));
    let header = lines.next()?;
    let mut section = vec![header];
    section.extend(lines.take_while(|line| line.is_empty() || line.starts_with(' ')));
    while section.last().is_some_and(|line| line.is_empty()) {
        section.pop();
    }
    Some(section)
}

/// The usage text for one subcommand (`dagfl <sub> --help`): its
/// one-line summary from the command list plus the flag sections of
/// [`USAGE`] that apply to it. `help` itself gets the full text.
pub fn usage_for(command: Command) -> String {
    if command == Command::Help {
        return USAGE.to_string();
    }
    let (word, sections) = command.entry();
    let entry = format!("    {word} ");
    // A command-list entry is its first line plus the continuation
    // lines indented to the description column.
    let summary: Vec<&str> = usage_section("COMMANDS")
        .unwrap_or_default()
        .into_iter()
        .skip_while(|line| !line.starts_with(&entry))
        .enumerate()
        .take_while(|(i, line)| *i == 0 || line.starts_with("              "))
        .map(|(_, line)| line.get(14..).unwrap_or("").trim())
        .collect();
    let mut out = format!(
        "dagfl {word} — {}\n\nUSAGE:\n    dagfl {word} [--flag value]...\n",
        summary.join(" ")
    );
    for title in sections {
        out.push('\n');
        for line in usage_section(title).unwrap_or_default() {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Errors from command-line parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// No subcommand given.
    MissingCommand,
    /// The subcommand is not recognised.
    UnknownCommand(String),
    /// The subcommand was folded into `dagfl run`.
    RemovedCommand {
        /// The removed subcommand.
        command: String,
        /// An invocation that replaces it.
        instead: &'static str,
    },
    /// The subcommand does not take this flag.
    UnknownFlag {
        /// The subcommand.
        command: &'static str,
        /// The flag, without its dashes.
        flag: String,
    },
    /// A flag is missing its value.
    MissingValue(String),
    /// A flag appeared that does not start with `--`.
    UnexpectedToken(String),
    /// A value could not be parsed as the expected type.
    InvalidValue {
        /// The flag name.
        flag: String,
        /// The raw value.
        value: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingCommand => write!(f, "missing subcommand (try `dagfl help`)"),
            ParseError::UnknownCommand(c) => write!(f, "unknown subcommand `{c}`"),
            ParseError::RemovedCommand { command, instead } => write!(
                f,
                "`dagfl {command}` was removed: run a scenario with `dagfl run` instead, \
                 e.g. `{instead}`"
            ),
            ParseError::UnknownFlag { command, flag } => {
                write!(f, "`dagfl {command}` has no flag `--{flag}`")?;
                if Command::parse(command).is_some_and(|c| c.flags().contains(&"set")) {
                    write!(f, "; set scenario keys with --set section.key=value")?;
                }
                write!(f, " (see `dagfl {command} --help`)")
            }
            ParseError::MissingValue(flag) => write!(f, "flag `{flag}` is missing its value"),
            ParseError::UnexpectedToken(t) => write!(f, "unexpected token `{t}`"),
            ParseError::InvalidValue { flag, value } => {
                write!(f, "invalid value `{value}` for flag `{flag}`")
            }
        }
    }
}

impl Error for ParseError {}

/// Flags that take no value (their presence means `true`), so
/// `dagfl run --preset smoke --full` parses without a dangling token.
const BOOLEAN_FLAGS: &[&str] = &["full", "dry-run", "reconnect", "digest", "help"];

/// A parsed command line: the subcommand plus `--key value` options and
/// (for `sweep`) one optional positional argument. A flag given twice
/// keeps every value; [`ParsedArgs::get`] reads the last one and
/// [`ParsedArgs::get_all`] all of them (`run --set`).
#[derive(Debug, Clone)]
pub struct ParsedArgs {
    command: Command,
    options: HashMap<String, Vec<String>>,
    positional: Option<String>,
}

impl ParsedArgs {
    /// Parses the argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for malformed input.
    pub fn parse<I, S>(args: I) -> Result<Self, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut iter = args.into_iter();
        let command_word = iter.next().ok_or(ParseError::MissingCommand)?;
        let word = command_word.as_ref();
        if let Some(&(_, instead)) = REMOVED.iter().find(|(w, _)| *w == word) {
            return Err(ParseError::RemovedCommand {
                command: word.to_string(),
                instead,
            });
        }
        let command =
            Command::parse(word).ok_or_else(|| ParseError::UnknownCommand(word.to_string()))?;
        let mut options: HashMap<String, Vec<String>> = HashMap::new();
        let mut positional: Option<String> = None;
        let mut pending: Option<String> = None;
        for token in iter {
            let token = token.as_ref();
            match pending.take() {
                Some(flag) => options.entry(flag).or_default().push(token.to_string()),
                None => {
                    if token == "-h" {
                        // `dagfl <sub> -h` is `dagfl <sub> --help`.
                        options.insert("help".to_string(), vec!["true".to_string()]);
                    } else if let Some(flag) = token.strip_prefix("--") {
                        if BOOLEAN_FLAGS.contains(&flag) {
                            options.insert(flag.to_string(), vec!["true".to_string()]);
                        } else {
                            pending = Some(flag.to_string());
                        }
                    } else if command == Command::Sweep && positional.is_none() {
                        // `dagfl sweep <file>` takes the sweep file (or
                        // sweep preset name) as its one positional arg.
                        positional = Some(token.to_string());
                    } else {
                        return Err(ParseError::UnexpectedToken(token.to_string()));
                    }
                }
            }
        }
        if let Some(flag) = pending {
            return Err(ParseError::MissingValue(format!("--{flag}")));
        }
        let known = command.flags();
        let mut given: Vec<&String> = options.keys().collect();
        given.sort_unstable();
        if let Some(flag) = given.into_iter().find(|f| !known.contains(&f.as_str())) {
            return Err(ParseError::UnknownFlag {
                command: command.word(),
                flag: flag.clone(),
            });
        }
        Ok(Self {
            command,
            options,
            positional,
        })
    }

    /// The subcommand.
    pub fn command(&self) -> Command {
        self.command
    }

    /// Raw string option, if present (the last value of a repeated
    /// flag).
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.options.get(flag)?.last().map(String::as_str)
    }

    /// Every value of a repeatable flag, in command-line order.
    pub fn get_all<'a>(&'a self, flag: &str) -> impl Iterator<Item = &'a str> {
        self.options
            .get(flag)
            .into_iter()
            .flatten()
            .map(String::as_str)
    }

    /// Whether a valueless boolean flag (`--full`, `--dry-run`) was
    /// given.
    pub fn flag(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    /// The positional argument (`dagfl sweep <file>`), if present.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// String option with default.
    pub fn get_or<'a>(&'a self, flag: &str, default: &'a str) -> &'a str {
        self.get(flag).unwrap_or(default)
    }

    /// Typed option with default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidValue`] when present but unparsable.
    pub fn get_parsed_or<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
    ) -> Result<T, ParseError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ParseError::InvalidValue {
                flag: flag.to_string(),
                value: raw.to_string(),
            }),
        }
    }

    /// A positive count option with default: like
    /// [`ParsedArgs::get_parsed_or`], but an explicit `0` is an error
    /// rather than a silent stand-in for the default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidValue`] when present but unparsable
    /// or zero.
    pub fn get_count_or(&self, flag: &str, default: usize) -> Result<usize, ParseError> {
        match self.get_parsed_or(flag, default)? {
            0 => Err(ParseError::InvalidValue {
                flag: flag.to_string(),
                value: "0".to_string(),
            }),
            count => Ok(count),
        }
    }

    /// An optional positive count: `None` when absent, an error when
    /// unparsable or zero.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidValue`] when present but unparsable
    /// or zero.
    pub fn get_count(&self, flag: &str) -> Result<Option<usize>, ParseError> {
        self.get(flag)
            .map(|_| self.get_count_or(flag, 1))
            .transpose()
    }

    /// The flags provided (sorted, for error reporting).
    pub fn flags(&self) -> Vec<&str> {
        let mut flags: Vec<&str> = self.options.keys().map(String::as_str).collect();
        flags.sort_unstable();
        flags
    }
}

/// The usage text for `dagfl help`.
pub const USAGE: &str = "\
dagfl — DAG-based decentralized federated learning

USAGE:
    dagfl <COMMAND> [--flag value]...

COMMANDS:
    run       run a declarative scenario (--scenario <file> | --preset <name>)
    sweep     expand and run a parameter grid over a base scenario
              (sweep <file|sweep-preset> | --preset-base <name> --axes <spec>)
    analyze   cluster client models and the approval graph of a scenario
              run, print assignments and quality metrics
              (--scenario <file> | --preset <name>)
    scenarios list scenario and sweep presets; --check <dir> validates
              scenario and sweep files, --dump <dir> writes every preset
    fedavg    centralized federated averaging on a rounds scenario's
              dataset and hyperparameters
    fedprox   FedProx baseline on a rounds scenario (use --mu, --stragglers)
    local     local-only training on a rounds scenario (no communication)
    perf      walk-evaluation performance smoke (writes BENCH_walk.json)
    peer      networked DAG-FL peer: gossip over TCP, tracker discovery,
              snapshot sync for late joiners
    tracker   peer-discovery tracker for the networked mode
    help      print this message

SCENARIOS:
    A scenario file describes a whole experiment (dataset, model,
    execution mode, attack, output) as TOML; see scenarios/*.toml.
    Presets resolve at quick scale by default; pass --full (or set
    DAGFL_FULL=1) for the paper's scale — the flag wins over the
    environment. `run --digest` also prints the tangle digest, a
    backend- and worker-count-independent hash of the final DAG.
    An async scenario's `[output] csv` is its per-activation series.

OVERRIDES:
    `--set` and sweep axes name any scenario-file key as
    `section.key`, or bare when one section holds it (`alpha`). Values
    use the file syntax; a bare word is a string. A key the scenario
    does not read is an error. Sweeps add `seed` and `replicate=0..n`.

SCENARIO FLAGS (run, analyze, fedavg, fedprox, local, peer):
    --scenario          scenario file
    --preset            scenario preset
    --full              resolve presets at the paper's scale
    --set               key=value override (see OVERRIDES), repeatable,
                        e.g. --set execution.matmul_backend=naive

RUN FLAGS:
    --digest            also print the final tangle digest

SWEEP FLAGS:
    <file>              sweep file (scenarios/sweep-*.toml) or sweep preset name
    --preset-base       base scenario preset for an ad-hoc sweep
    --axes              ad-hoc axes (see OVERRIDES), e.g.
                        \"alpha=0.1,1,10;execution.walk_depth_max=20,30\"
    --jobs              worker threads                  (available cores)
    --dry-run           list the expanded cells without running
    --csv               comparison CSV name             (spec default)
    --full              resolve preset bases at the paper's scale

ANALYZE FLAGS (mirror the [analysis] scenario section):
    --k                 fixed cluster count        (auto-k by silhouette)
    --k-min             auto-k sweep lower bound              (2)
    --k-max             auto-k sweep upper bound              (6)
    --cadence           analyse every N rounds     (0 = final round only)
    --source            parameters | approvals | both         (both)

SCENARIOS FLAGS:
    --check             validate every *.toml scenario and sweep file in a dir
    --dump              write every preset as a file into a dir

BASELINE FLAGS (fedavg, fedprox; the dataset, model, Table 1
    hyperparameters and seed come from a rounds scenario):
    --stragglers        straggler fraction; fedavg drops their partial
                        updates, fedprox keeps them     (0.0)

FEDPROX FLAGS:
    --mu                proximal strength           (0.1)

PERF FLAGS:
    --transactions      synthetic tangle size                 (500)
    --walks             walks per phase (cold + warm cache)   (20)
    --samples           samples per synthetic client          (240)
    --alpha             walk randomness parameter             (10)
    --seed              master seed                           (42)
    --clients           async-phase client count, min 3       (64)
    --workers           async-phase training threads          (4)
    --activations       async-phase total activations         (--clients)
    --train-steps       training-phase SGD steps per backend  (60)
    --out               output JSON path   (results/BENCH_walk.json)
    --train-out         training JSON path (results/BENCH_train.json)

PEER FLAGS (networked mode; dataset, model and hyperparameters come
    from a rounds scenario):
    --client            this peer's client id                 (0)
    --peers             total peers in the session            (1)
    --tracker           tracker address                       (127.0.0.1:7878)
    --listen            gossip listen address, port 0 = any   (127.0.0.1:0)
    --activations       local training activations            (4)
    --interarrival-ms   pause between activations, ms         (50)
    --settle-ms         quiet period before exiting, ms       (300)
    --timeout           session timeout, seconds              (120)
    --reconnect         retry lost connections with backoff   (off)
    --fanout            gossip targets per publish, 0 = all   (0)

TRACKER FLAGS:
    --listen            tracker listen address                (127.0.0.1:7878)
    --expect            exit after this many peers join+leave (serve forever)
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_flags() {
        let args = ParsedArgs::parse(["perf", "--walks", "10", "--alpha", "5"]).unwrap();
        assert_eq!(args.command(), Command::Perf);
        assert_eq!(args.get("walks"), Some("10"));
        assert_eq!(args.get_parsed_or("alpha", 0.0f32).unwrap(), 5.0);
        assert_eq!(args.flags(), vec!["alpha", "walks"]);
    }

    #[test]
    fn defaults_apply_when_flag_absent() {
        let args = ParsedArgs::parse(["fedavg", "--preset", "smoke"]).unwrap();
        assert_eq!(args.command(), Command::FedAvg);
        assert_eq!(args.get_parsed_or("stragglers", 0.25f32).unwrap(), 0.25);
        assert_eq!(args.get_or("scenario", "none"), "none");
    }

    #[test]
    fn all_commands_parse() {
        for (word, cmd) in [
            ("fedavg", Command::FedAvg),
            ("fedprox", Command::FedProx),
            ("local", Command::Local),
            ("run", Command::Run),
            ("analyze", Command::Analyze),
            ("sweep", Command::Sweep),
            ("scenarios", Command::Scenarios),
            ("perf", Command::Perf),
            ("peer", Command::Peer),
            ("tracker", Command::Tracker),
            ("help", Command::Help),
            ("--help", Command::Help),
        ] {
            assert_eq!(ParsedArgs::parse([word]).unwrap().command(), cmd);
        }
        // The flag-driven modes are gone; their errors point to `run`.
        for word in ["dag", "async"] {
            let err = ParsedArgs::parse([word, "--rounds", "3"]).unwrap_err();
            assert!(
                matches!(err, ParseError::RemovedCommand { ref command, .. } if command == word),
                "{err:?}"
            );
            assert!(err.to_string().contains("dagfl run"), "{err}");
        }
    }

    #[test]
    fn missing_command_errors() {
        assert_eq!(
            ParsedArgs::parse(Vec::<String>::new()).unwrap_err(),
            ParseError::MissingCommand
        );
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(
            ParsedArgs::parse(["frobnicate"]).unwrap_err(),
            ParseError::UnknownCommand(_)
        ));
    }

    #[test]
    fn missing_value_errors() {
        assert!(matches!(
            ParsedArgs::parse(["run", "--preset"]).unwrap_err(),
            ParseError::MissingValue(_)
        ));
    }

    #[test]
    fn bare_token_errors() {
        assert!(matches!(
            ParsedArgs::parse(["run", "smoke"]).unwrap_err(),
            ParseError::UnexpectedToken(_)
        ));
    }

    #[test]
    fn sweep_takes_one_positional_argument() {
        let args =
            ParsedArgs::parse(["sweep", "scenarios/sweep-smoke.toml", "--jobs", "2"]).unwrap();
        assert_eq!(args.command(), Command::Sweep);
        assert_eq!(args.positional(), Some("scenarios/sweep-smoke.toml"));
        assert_eq!(args.get("jobs"), Some("2"));
        // Only one positional is accepted, and only for `sweep`.
        assert!(matches!(
            ParsedArgs::parse(["sweep", "a.toml", "b.toml"]).unwrap_err(),
            ParseError::UnexpectedToken(_)
        ));
        assert_eq!(ParsedArgs::parse(["run"]).unwrap().positional(), None);
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let args = ParsedArgs::parse(["run", "--preset", "smoke", "--full"]).unwrap();
        assert!(args.flag("full"));
        assert_eq!(args.get("preset"), Some("smoke"));
        let args = ParsedArgs::parse(["sweep", "x.toml", "--dry-run", "--jobs", "4"]).unwrap();
        assert!(args.flag("dry-run"));
        assert_eq!(args.get_parsed_or("jobs", 1usize).unwrap(), 4);
        let args = ParsedArgs::parse(["run", "--preset", "smoke", "--digest"]).unwrap();
        assert!(args.flag("digest"));
        assert_eq!(args.get_all("set").count(), 0);
        assert!(!ParsedArgs::parse(["run"]).unwrap().flag("full"));
    }

    #[test]
    fn repeated_flags_keep_every_value() {
        let args = ParsedArgs::parse([
            "run", "--set", "alpha=1", "--preset", "smoke", "--set", "seed=2",
        ])
        .unwrap();
        assert_eq!(
            args.get_all("set").collect::<Vec<_>>(),
            ["alpha=1", "seed=2"]
        );
        assert_eq!(args.get("set"), Some("seed=2"));
        assert_eq!(args.get("preset"), Some("smoke"));
    }

    #[test]
    fn invalid_typed_value_errors() {
        let args = ParsedArgs::parse(["perf", "--walks", "many"]).unwrap();
        assert!(matches!(
            args.get_parsed_or("walks", 1usize).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
    }

    #[test]
    fn help_after_a_subcommand_is_a_flag() {
        for invocation in [
            vec!["perf", "--help"],
            vec!["run", "--preset", "smoke", "--help"],
            vec!["sweep", "-h"],
        ] {
            let args = ParsedArgs::parse(invocation.clone()).expect("parses");
            assert!(args.flag("help"), "{invocation:?}");
            assert_eq!(args.positional(), None);
        }
    }

    #[test]
    fn every_subcommand_has_its_own_usage() {
        for &(word, cmd, sections) in &COMMANDS {
            if cmd == Command::Help {
                continue;
            }
            let usage = usage_for(cmd);
            assert!(usage.starts_with(&format!("dagfl {word} — ")), "{usage}");
            // The summary line is never empty: the command is listed.
            assert!(!usage.lines().next().unwrap().ends_with("— "), "{usage}");
            for title in sections {
                assert!(usage_section(title).is_some(), "USAGE lacks {title}");
                assert!(usage.contains(title), "{cmd:?} usage lacks {title}");
            }
        }
        assert!(usage_for(Command::Perf).contains("--transactions"));
        assert!(!usage_for(Command::Perf).contains("--preset"));
        assert!(usage_for(Command::FedProx).contains("--mu"));
        assert!(!usage_for(Command::FedAvg).contains("--mu"));
        assert!(usage_for(Command::Run).contains("--digest"));
        assert_eq!(usage_for(Command::Help), USAGE);
    }

    #[test]
    fn count_options_reject_zero() {
        let args = ParsedArgs::parse(["perf", "--clients", "0", "--walks", "3"]).unwrap();
        assert_eq!(
            args.get_count_or("clients", 15).unwrap_err(),
            ParseError::InvalidValue {
                flag: "clients".into(),
                value: "0".into()
            }
        );
        assert_eq!(args.get_count_or("walks", 1).unwrap(), 3);
        assert_eq!(args.get_count_or("transactions", 30).unwrap(), 30);
        assert_eq!(args.get_count("samples").unwrap(), None);
        assert_eq!(args.get_count("walks").unwrap(), Some(3));
        assert!(args.get_count("clients").is_err());
    }

    #[test]
    fn usage_mentions_every_command() {
        for (word, _, _) in COMMANDS {
            assert!(
                USAGE.contains(&format!("\n    {word} ")),
                "usage missing {word}"
            );
        }
    }

    /// One rule for every subcommand: a flag its usage does not list is
    /// an error naming the flag, never silently ignored.
    #[test]
    fn unknown_flags_are_rejected_for_every_subcommand() {
        for (word, typo) in [
            ("run", "prset"),
            ("sweep", "job"),
            ("analyze", "cadance"),
            ("scenarios", "bogus"),
            ("fedavg", "straglers"),
            ("fedprox", "m"),
            ("local", "rounds"),
            ("perf", "transaction"),
            ("peer", "lisen"),
            ("tracker", "lisen"),
            ("help", "verbose"),
        ] {
            let err = ParsedArgs::parse([word, &format!("--{typo}"), "1"]).unwrap_err();
            assert_eq!(
                err,
                ParseError::UnknownFlag {
                    command: word,
                    flag: typo.to_string()
                },
                "{word}"
            );
            let message = err.to_string();
            assert!(message.contains(&format!("`--{typo}`")), "{message}");
            assert!(message.contains(&format!("dagfl {word}")), "{message}");
        }
        // Every command is in the table above.
        assert_eq!(COMMANDS.len(), 11);
    }

    #[test]
    fn every_listed_flag_is_accepted() {
        for (word, cmd, _) in COMMANDS {
            for flag in cmd.flags() {
                let argv = [word.to_string(), format!("--{flag}"), "1".to_string()];
                let argv = if BOOLEAN_FLAGS.contains(&flag) {
                    &argv[..2]
                } else {
                    &argv[..]
                };
                ParsedArgs::parse(argv).unwrap_or_else(|e| panic!("{word} --{flag}: {e}"));
            }
        }
        assert!(Command::Run.flags().contains(&"set"));
        assert!(Command::Peer.flags().contains(&"reconnect"));
        assert!(!Command::Local.flags().contains(&"stragglers"));
    }
}
