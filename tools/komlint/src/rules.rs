//! Rule catalog, allow-directive handling and the per-file check driver.

use crate::lexer::{scrub, test_block_mask, Line};

/// How a rule recognizes a violation on a scrubbed code line.
pub enum Matcher {
    /// Any of these substrings appearing in the code.
    Substring(&'static [&'static str]),
    /// A `let` binding whose right-hand side *ends* with a lock acquisition
    /// (`….lock();`), i.e. the guard is bound to a variable and held for the
    /// rest of the scope instead of scoped to one expression.
    LockHold,
    /// Any of `needles` appearing in the code of a line whose surrounding
    /// context (± `window` code lines) contains one of `markers`. Used for
    /// rules that only apply *at* certain call sites (e.g. wall-clock reads
    /// next to telemetry recording).
    Contextual {
        needles: &'static [&'static str],
        markers: &'static [&'static str],
        window: usize,
    },
}

/// A determinism lint rule.
pub struct Rule {
    /// Stable id used in diagnostics and `allow(...)` directives.
    pub id: &'static str,
    pub matcher: Matcher,
    pub message: &'static str,
    /// Fix-it guidance appended to human-readable diagnostics.
    pub hint: &'static str,
    /// When true the rule only applies to component-code crates
    /// (`cats`, `kompics-protocols`, `examples`), not runtime internals.
    pub component_only: bool,
    /// When non-empty the rule only applies to files whose (normalized)
    /// path starts with one of these prefixes — for lints that police a
    /// specific subsystem (e.g. the wire path) rather than the whole tree.
    pub path_prefixes: &'static [&'static str],
    /// Why the pattern is a problem — shown by `--explain`.
    pub rationale: &'static str,
    /// A minimal violating snippet; must actually trip the rule (enforced
    /// by a self-test), so `--explain` never shows a stale example.
    pub bad_example: &'static str,
    /// The allowed replacement; must check clean (same self-test).
    pub good_example: &'static str,
}

/// Every rule komlint knows about, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "wall-clock",
        matcher: Matcher::Substring(&["Instant::now(", "SystemTime::now("]),
        message: "ambient wall-clock read",
        hint: "inject a ClockRef (kompics_core::clock) or accept the time source as a \
               constructor argument so simulation can virtualize time",
        component_only: false,
        path_prefixes: &[],
        rationale: "the simulation replays a whole system in virtual time from a seed; \
                    a component that reads the machine clock sees different values on \
                    every run, so same-seed runs diverge and bugs stop reproducing",
        bad_example: "fn f(&mut self) {\n    self.started = Instant::now();\n}\n",
        good_example: "fn f(&mut self, clock: &ClockRef) {\n    self.started = clock.now();\n}\n",
    },
    Rule {
        id: "telemetry-wall-clock",
        matcher: Matcher::Contextual {
            needles: &["Instant::now(", "SystemTime::now("],
            markers: &[
                ".record(",
                ".observe(",
                "Tracer",
                "TraceRecord",
                "TraceSink",
                "telemetry",
            ],
            window: 3,
        },
        message: "wall-clock read at a telemetry call site",
        hint: "telemetry timestamps must come from the installed clock \
               (TelemetrySpec/TimeSource), never Instant::now() — otherwise \
               simulated metrics and traces stop being byte-identical across \
               same-seed runs",
        component_only: false,
        path_prefixes: &[],
        rationale: "the telemetry suite guarantees byte-identical metric and trace \
                    exports across same-seed simulation runs; a raw clock read at a \
                    record/observe call site smuggles host time into the export and \
                    silently voids that guarantee",
        bad_example: "fn f(&mut self) {\n    let t0 = Instant::now();\n    self.latency.record(t0.elapsed());\n}\n",
        good_example: "fn f(&mut self, ts: &TimeSource) {\n    let t0 = ts.now();\n    self.latency.record(ts.since(t0));\n}\n",
    },
    Rule {
        id: "ambient-rng",
        matcher: Matcher::Substring(&["thread_rng(", "rand::random"]),
        message: "ambient randomness",
        hint: "a thread-seeded RNG breaks deterministic replay; take an explicit seed \
               (e.g. SmallRng::seed_from_u64) from configuration",
        component_only: false,
        path_prefixes: &[],
        rationale: "protocols like Cyclon shuffle and the failure detector make \
                    randomized decisions; if the randomness is seeded from the \
                    environment instead of the scenario seed, a simulated failure \
                    cannot be replayed to debug it",
        bad_example: "fn f(&mut self) {\n    let coin: bool = rand::random();\n    self.flip = coin;\n}\n",
        good_example: "fn f(seed: u64) -> SmallRng {\n    SmallRng::seed_from_u64(seed)\n}\n",
    },
    Rule {
        id: "affinity-ambient-hash",
        matcher: Matcher::Contextual {
            needles: &[
                "DefaultHasher::new(",
                "RandomState::new(",
                "RandomState::default(",
            ],
            markers: &["shard", "affinity", "placement"],
            window: 4,
        },
        message: "component placement derived from an ambient-seeded hasher",
        hint: "home-shard / affinity placement must be a pure function of the \
               component id so two same-seed runs place components identically; \
               std's RandomState-keyed hashers are seeded per-process — use \
               kompics_core::sched::affinity::home_shard (seedless splitmix64) \
               or another fixed-key hash instead",
        component_only: false,
        path_prefixes: &[],
        rationale: "std's RandomState is seeded once per process, so a hasher-derived \
                    home shard places the same component on different workers in \
                    different runs — execution interleavings, and therefore any bug \
                    that depends on them, stop being reproducible",
        bad_example: "fn shard_for(id: u64) -> usize {\n    let mut h = DefaultHasher::new();\n    id.hash(&mut h);\n    h.finish() as usize % SHARDS\n}\n",
        good_example: "fn shard_for(id: u64) -> usize {\n    home_shard(id, SHARDS)\n}\n",
    },
    Rule {
        id: "blocking-sleep",
        matcher: Matcher::Substring(&["thread::sleep("]),
        message: "blocking sleep",
        hint: "handlers must not block a scheduler worker; use a timer port \
               (kompics-timer) or simulated time instead",
        component_only: false,
        path_prefixes: &[],
        rationale: "a handler runs on one of a small fixed pool of scheduler workers; \
                    sleeping in it stalls every component assigned to that worker, and \
                    in simulation there is no wall time to sleep against at all",
        bad_example: "fn f(&mut self) {\n    thread::sleep(Duration::from_millis(100));\n    self.retry();\n}\n",
        good_example: "fn f(&mut self, timer: &TimerRef) {\n    timer.schedule_once(self.id(), RETRY_DELAY);\n}\n",
    },
    Rule {
        id: "blocking-recv",
        matcher: Matcher::Substring(&[".recv()", ".recv_timeout("]),
        message: "blocking channel receive",
        hint: "blocking a worker on a channel can deadlock the scheduler; subscribe a \
               handler for the reply event instead",
        component_only: false,
        path_prefixes: &[],
        rationale: "the component that would send the awaited reply may be scheduled \
                    on the same worker that is now parked in recv(): the reply can \
                    never be produced and the scheduler deadlocks — the exact failure \
                    mode the message-passing model exists to prevent",
        bad_example: "fn f(&mut self, rx: &Receiver<Reply>) {\n    let reply = rx.recv().unwrap();\n    self.apply(reply);\n}\n",
        good_example: "fn f(&mut self, rx: &Receiver<Reply>) {\n    while let Ok(reply) = rx.try_recv() {\n        self.apply(reply);\n    }\n}\n",
    },
    Rule {
        id: "thread-spawn",
        matcher: Matcher::Substring(&["thread::spawn("]),
        message: "raw thread spawn",
        hint: "raw threads escape supervision and deterministic replay; create a \
               component on the scheduler instead",
        component_only: false,
        path_prefixes: &[],
        rationale: "a raw thread has no supervisor (its panics vanish instead of \
                    escalating through the fault tree) and the simulation scheduler \
                    cannot interpose on it, so anything it does is invisible to \
                    deterministic replay",
        bad_example: "fn f(&mut self) {\n    thread::spawn(move || background_work());\n}\n",
        good_example: "fn f(&mut self, system: &KompicsSystem) {\n    let worker = system.create(Worker::new);\n    worker.start();\n}\n",
    },
    Rule {
        id: "lock-hold",
        matcher: Matcher::LockHold,
        message: "lock guard bound to a variable and held across the enclosing scope",
        hint: "scope the guard to a single expression (`state.lock().field`) or move \
               the shared state into a component and message it",
        component_only: true,
        path_prefixes: &[],
        rationale: "a guard held across the rest of a handler is held across every \
                    trigger the handler performs; if any downstream handler takes the \
                    same lock the system deadlocks, and lock-step interleavings are \
                    exactly what the share-nothing component model removes",
        bad_example: "fn f(&mut self) {\n    let state = self.shared.lock();\n    self.net.trigger(Update { v: state.v });\n}\n",
        good_example: "fn f(&mut self) {\n    let v = self.shared.lock().v;\n    self.net.trigger(Update { v });\n}\n",
    },
    Rule {
        id: "unbounded-queue-push",
        matcher: Matcher::Substring(&[
            "queue.push_back(",
            "queue.push(",
            "buffer.push_back(",
            "items.push_back(",
            "events.push_back(",
            "pending.push_back(",
            "inbox.push_back(",
            "mailbox.push_back(",
        ]),
        message: "direct push into an event-queue collection with no capacity check",
        hint: "event queues must be bounded: route delivery through the component \
               mailbox (MailboxSpec lanes enforce capacity and overload policy) or \
               check capacity before pushing; an unbounded queue under a flood grows \
               memory without bound and starves the control lane",
        component_only: false,
        path_prefixes: &[],
        rationale: "every queue in the runtime is bounded with an explicit overload \
                    policy (backpressure, drop, coalesce); a raw push into a \
                    queue-named collection bypasses that discipline, so a flood grows \
                    memory without bound while the control lane starves behind it",
        bad_example: "fn f(&mut self, ev: Event) {\n    self.queue.push_back(ev);\n}\n",
        good_example: "fn f(&mut self, ev: Event) {\n    if let Err(rejected) = self.mailbox.offer(Lane::Data, ev) {\n        self.shed(rejected);\n    }\n}\n",
    },
    Rule {
        id: "wire-path-copy",
        matcher: Matcher::Contextual {
            needles: &[".to_vec()", ".extend_from_slice("],
            markers: &["frame", "payload", "body"],
            window: 2,
        },
        message: "whole-buffer copy on the zero-copy wire path",
        hint: "the wire path carries frames as refcounted `bytes::Bytes`: slice or \
               `split_to` instead of copying, and decode through \
               `decode_shared` so payload fields borrow the receive buffer; if the \
               copy is genuinely required (in-place compression, retained/coalesced \
               events), allow it with a reason",
        component_only: false,
        path_prefixes: &["crates/kompics-network", "crates/kompics-codec"],
        rationale: "the encode-once/decode-borrowed wire path exists so a frame body \
                    crosses the transport with zero copies; a stray to_vec() or \
                    extend_from_slice of a frame/payload/body silently reintroduces \
                    the allocation-per-message cost the subsystem was rebuilt to \
                    remove, and nothing else will catch the regression",
        bad_example: "fn deliver(&mut self, frame: &[u8]) {\n    let body = frame.to_vec();\n    self.handle(body);\n}\n",
        good_example: "fn deliver(&mut self, frame: Bytes) {\n    let body = frame.slice(5..);\n    self.handle(body);\n}\n",
    },
];

/// One reported problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the match.
    pub col: usize,
    pub rule: &'static str,
    pub message: String,
    pub hint: String,
}

struct Directive {
    rule: String,
    file_scope: bool,
    /// 0-based line of the directive comment.
    at: usize,
    /// 0-based line whose findings it suppresses (first code line at or
    /// after the comment); `None` for file scope or trailing-edge comments.
    target: Option<usize>,
    has_reason: bool,
    used: bool,
}

/// Parses `komlint: allow(rule) reason="…"` / `komlint: allow-file(rule)
/// reason="…"` out of a comment.
fn parse_directive(comment: &str, at: usize) -> Option<Directive> {
    let rest = comment.trim().strip_prefix("komlint:")?.trim_start();
    let (file_scope, rest) = if let Some(r) = rest.strip_prefix("allow-file(") {
        (true, r)
    } else if let Some(r) = rest.strip_prefix("allow(") {
        (false, r)
    } else {
        return None;
    };
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let tail = &rest[close + 1..];
    let has_reason = tail
        .find("reason=\"")
        .map(|p| p + "reason=\"".len())
        .is_some_and(|start| tail[start..].find('"').is_some_and(|len| len > 0));
    Some(Directive {
        rule,
        file_scope,
        at,
        target: None,
        has_reason,
        used: false,
    })
}

fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Looks a rule up by id (for `--explain`).
pub fn find_rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Comma-separated list of every rule id, in reporting order.
pub fn rule_list() -> String {
    RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
}

/// The closest known rule id within edit distance 3, for typo hints.
pub fn did_you_mean(id: &str) -> Option<&'static str> {
    RULES
        .iter()
        .map(|r| (edit_distance(id, r.id), r.id))
        .min()
        .filter(|(distance, _)| *distance <= 3)
        .map(|(_, rule)| rule)
}

/// Classic Levenshtein distance, O(|a|·|b|) with a rolling row.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            row.push(substitute.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// Runs every applicable rule over one file.
///
/// `component_code` selects whether `component_only` rules apply —
/// decided by the caller from the file's path.
pub fn check_file(path: &str, source: &str, component_code: bool) -> Vec<Diagnostic> {
    let lines = scrub(source);
    let in_test = test_block_mask(&lines);
    let mut directives = collect_directives(&lines);
    let mut out = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] || !line.has_code() {
            continue;
        }
        for rule in RULES {
            if rule.component_only && !component_code {
                continue;
            }
            if !rule.path_prefixes.is_empty()
                && !rule.path_prefixes.iter().any(|p| path.starts_with(p))
            {
                continue;
            }
            for col in match_rule(rule, &lines, idx) {
                if suppressed(&mut directives, rule.id, idx) {
                    continue;
                }
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: idx + 1,
                    col: col + 1,
                    rule: rule.id,
                    message: rule.message.to_string(),
                    hint: rule.hint.to_string(),
                });
            }
        }
    }

    // Directive hygiene: every allow needs a reason and must suppress
    // something, or it is itself a finding.
    for d in &directives {
        if !known_rule(&d.rule) {
            out.push(Diagnostic {
                path: path.to_string(),
                line: d.at + 1,
                col: 1,
                rule: "unknown-rule",
                message: format!("allow directive names unknown rule `{}`", d.rule),
                hint: match did_you_mean(&d.rule) {
                    Some(close) => {
                        format!("did you mean `{close}`? valid rules: {}", rule_list())
                    }
                    None => format!("valid rules: {}", rule_list()),
                },
            });
            continue;
        }
        if !d.has_reason {
            out.push(Diagnostic {
                path: path.to_string(),
                line: d.at + 1,
                col: 1,
                rule: "missing-reason",
                message: format!(
                    "allow({}) directive has no reason=\"...\" justification",
                    d.rule
                ),
                hint: "every suppression must explain why the pattern is safe here".to_string(),
            });
        }
        if !d.used {
            out.push(Diagnostic {
                path: path.to_string(),
                line: d.at + 1,
                col: 1,
                rule: "unused-allow",
                message: format!("allow({}) directive suppresses nothing", d.rule),
                hint: "remove the stale directive (the code it excused has moved or \
                       been fixed)"
                    .to_string(),
            });
        }
    }

    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

fn collect_directives(lines: &[Line]) -> Vec<Directive> {
    let mut directives = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        for comment in &line.comments {
            if let Some(mut d) = parse_directive(comment, idx) {
                if !d.file_scope {
                    // Trailing comment covers its own line; a comment-only
                    // line covers the next line that has code.
                    d.target = if line.has_code() {
                        Some(idx)
                    } else {
                        (idx + 1..lines.len()).find(|&j| lines[j].has_code())
                    };
                }
                directives.push(d);
            }
        }
    }
    directives
}

fn suppressed(directives: &mut [Directive], rule: &str, line: usize) -> bool {
    // Line-scoped allows take precedence so a file-scoped one is not
    // spuriously marked used.
    if let Some(d) = directives
        .iter_mut()
        .find(|d| !d.file_scope && d.rule == rule && d.target == Some(line))
    {
        d.used = true;
        return true;
    }
    if let Some(d) = directives
        .iter_mut()
        .find(|d| d.file_scope && d.rule == rule)
    {
        d.used = true;
        return true;
    }
    false
}

/// Returns the 0-based columns where `rule` matches the code on line `idx`.
fn match_rule(rule: &Rule, lines: &[Line], idx: usize) -> Vec<usize> {
    let code = &lines[idx].code;
    match rule.matcher {
        Matcher::Substring(patterns) => substring_cols(code, patterns),
        Matcher::Contextual {
            needles,
            markers,
            window,
        } => {
            let cols = substring_cols(code, needles);
            if cols.is_empty() {
                return cols;
            }
            let lo = idx.saturating_sub(window);
            let hi = (idx + window).min(lines.len() - 1);
            let in_context =
                (lo..=hi).any(|j| markers.iter().any(|marker| lines[j].code.contains(marker)));
            if in_context {
                cols
            } else {
                Vec::new()
            }
        }
        Matcher::LockHold => {
            let trimmed = trim_trailing(code);
            let stmt = trimmed.strip_suffix(';').unwrap_or(trimmed);
            let is_let = stmt.trim_start().starts_with("let ");
            if is_let && stmt.ends_with(".lock()") {
                vec![code.find("let ").unwrap_or(0)]
            } else {
                Vec::new()
            }
        }
    }
}

fn substring_cols(code: &str, patterns: &[&str]) -> Vec<usize> {
    let mut cols = Vec::new();
    for pat in patterns {
        let mut from = 0;
        while let Some(pos) = code[from..].find(pat) {
            cols.push(from + pos);
            from += pos + pat.len();
        }
    }
    cols.sort_unstable();
    cols
}

fn trim_trailing(code: &str) -> &str {
    code.trim_end()
}
