//! What the six gate planes share: the only flag parser and the only
//! `--seed-bug` self-test loop in the tool layer.
//!
//! A plane declares its CLI as a table of [`Flag`]s, each naming the
//! variable it sets; [`parse`] walks the arguments against it. An unknown
//! flag, a missing value and a non-positive count are errors on every
//! plane, and `--help` is rendered from the same table, so the usage text
//! cannot drift from what is accepted. A plane's library exports its planted
//! bugs as one `&[(name, bug)]` table; [`self_test`] resolves `--seed-bug
//! all|NAME` against it and applies the one exit rule.

use std::process::ExitCode;

/// Stores one flag's value; the `Err` says what the flag needs.
type Setter<'a> = Box<dyn FnMut(&str) -> Result<(), String> + 'a>;

/// One row of a plane's flag table.
pub struct Flag<'a> {
    name: &'static str,
    /// Value placeholder for `--help`; `None` for a switch.
    meta: Option<&'static str>,
    help: &'static str,
    set: Setter<'a>,
}

impl<'a> Flag<'a> {
    fn new(
        name: &'static str,
        meta: Option<&'static str>,
        help: &'static str,
        set: impl FnMut(&str) -> Result<(), String> + 'a,
    ) -> Self {
        Flag { name, meta, help, set: Box::new(set) }
    }
}

/// `--name`: sets `field`.
pub fn switch<'a>(name: &'static str, help: &'static str, field: &'a mut bool) -> Flag<'a> {
    Flag::new(name, None, help, move |_| {
        *field = true;
        Ok(())
    })
}

/// `--name META`: stores what `parse` makes of the value; `None` rejects it.
pub fn value<'a, T>(
    name: &'static str,
    meta: &'static str,
    help: &'static str,
    field: &'a mut T,
    parse: impl Fn(&str) -> Option<T> + 'a,
) -> Flag<'a> {
    Flag::new(name, Some(meta), help, move |v| {
        *field = parse(v).ok_or_else(|| format!("takes {meta}"))?;
        Ok(())
    })
}

/// `--name N`: a count, which must be a positive integer that fits `field`.
pub fn count<'a, T: TryFrom<u64>>(
    name: &'static str,
    help: &'static str,
    field: &'a mut T,
) -> Flag<'a> {
    value(name, "N>=1", help, field, positive)
}

/// A positive integer that fits `T`.
pub fn positive<T: TryFrom<u64>>(v: &str) -> Option<T> {
    v.parse::<u64>().ok().filter(|&n| n > 0).and_then(|n| T::try_from(n).ok())
}

/// `--name TEXT`: stores the value as is.
pub fn text<'a>(
    name: &'static str,
    meta: &'static str,
    help: &'static str,
    field: &'a mut Option<String>,
) -> Flag<'a> {
    value(name, meta, help, field, |v| Some(Some(v.to_string())))
}

/// The `--seed-bug` row every plane's table carries; [`self_test`] takes
/// the value.
pub fn seed_bug(field: &mut Option<String>) -> Flag<'_> {
    text("--seed-bug", "all|NAME", "self-test: plant the bug(s), demand conviction", field)
}

/// The `--help` text: one row per table entry, nothing else.
pub fn help(plane: &str, about: &str, flags: &[Flag]) -> String {
    let mut out = format!("cargo xtask {plane} — {about}\n");
    for f in flags {
        let left = format!("{} {}", f.name, f.meta.unwrap_or_default());
        out.push_str(&format!("  {left:<38} {}\n", f.help));
    }
    out
}

/// Walk `args` against the table. `Ok(true)` means `--help` was asked for
/// (nothing after it is read); every `Err` names the offending flag.
fn walk(flags: &mut [Flag], args: &[String]) -> Result<bool, String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(true);
        }
        let flag = flags
            .iter_mut()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown flag `{arg}`"))?;
        let v = match flag.meta {
            None => "",
            Some(_) => it.next().ok_or_else(|| format!("`{arg}` needs a value"))?,
        };
        (flag.set)(v).map_err(|needs| format!("`{arg}` {needs}, got `{v}`"))?;
    }
    Ok(false)
}

/// Parse a plane's arguments into the variables its table names. `Err` is
/// the exit status to leave with: success after printing `--help`, failure
/// after reporting a bad argument.
pub fn parse(
    plane: &str,
    about: &str,
    mut flags: Vec<Flag>,
    args: &[String],
) -> Result<(), ExitCode> {
    match walk(&mut flags, args) {
        Ok(false) => Ok(()),
        Ok(true) => {
            print!("{}", help(plane, about, &flags));
            Err(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("xtask {plane}: {e} (try --help)");
            Err(ExitCode::FAILURE)
        }
    }
}

/// The self-test loop behind [`self_test`], with its output as lines:
/// whether the run passed, or `Err` when `which` names no table entry.
fn run_self_test<B>(
    plane: &str,
    which: &str,
    table: &[(&str, B)],
    mut convict: impl FnMut(&str, &B) -> Result<String, String>,
    emit: &mut dyn FnMut(String),
) -> Result<bool, String> {
    let selected: Vec<&(&str, B)> =
        table.iter().filter(|(name, _)| which == "all" || *name == which).collect();
    if selected.is_empty() && which != "all" {
        let known: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
        return Err(format!("unknown seed bug `{which}` (known: {}, all)", known.join(", ")));
    }
    let mut hit = 0;
    for (name, bug) in &selected {
        match convict(name, bug) {
            Ok(detail) => {
                hit += 1;
                emit(format!("xtask {plane}: seed {name} CONVICTED\n  {detail}"));
            }
            Err(why) => emit(format!("xtask {plane}: seed {name} MISSED — {why}")),
        }
    }
    emit(format!("xtask {plane}: {hit}/{} seeded bugs detected", selected.len()));
    Ok(hit == selected.len() && hit > 0)
}

/// `--seed-bug all|NAME`: plant each selected bug of `table` through
/// `convict` — `Ok` carries the conviction's detail, `Err` why the gate
/// stayed quiet — print one `CONVICTED`/`MISSED` line per bug and the
/// `h/t` summary. Succeeds only if every selected bug was convicted and
/// there was one to convict: a gate that has never fired proves nothing.
pub fn self_test<B>(
    plane: &str,
    which: &str,
    table: &[(&str, B)],
    convict: impl FnMut(&str, &B) -> Result<String, String>,
) -> ExitCode {
    match run_self_test(plane, which, table, convict, &mut |line| println!("{line}")) {
        Ok(passed) => crate::verdict(passed),
        Err(e) => {
            eprintln!("xtask {plane}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// A three-flag table over fresh variables, walked over `line`.
    fn walk_line(line: &str) -> Result<(bool, u32, Option<String>, bool), String> {
        let (mut deep, mut ranks, mut out) = (false, 4u32, None);
        let mut flags = vec![
            switch("--deep", "more", &mut deep),
            count("--ranks", "world size", &mut ranks),
            text("--out", "FILE", "report path", &mut out),
        ];
        let helped = walk(&mut flags, &args(line))?;
        drop(flags);
        Ok((deep, ranks, out, helped))
    }

    #[test]
    fn table_flags_set_their_fields() {
        assert_eq!(walk_line("").unwrap(), (false, 4, None, false));
        assert_eq!(
            walk_line("--ranks 8 --deep --out r.json").unwrap(),
            (true, 8, Some("r.json".to_string()), false)
        );
    }

    #[test]
    fn bad_arguments_are_errors_naming_the_flag() {
        let unknown = walk_line("--deep --bogus").unwrap_err();
        assert!(unknown.contains("unknown flag") && unknown.contains("--bogus"), "{unknown}");
        let missing = walk_line("--deep --out").unwrap_err();
        assert!(missing.contains("--out") && missing.contains("needs a value"), "{missing}");
        for bad in ["0", "-3", "many", "4294967296"] {
            let e = walk_line(&format!("--ranks {bad}")).unwrap_err();
            assert!(e.contains("--ranks") && e.contains(bad), "{e}");
        }
    }

    #[test]
    fn help_lists_exactly_the_table() {
        assert!(walk_line("--help --bogus").unwrap().3, "--help wins over what follows it");
        let (mut a, mut b) = (false, 1usize);
        let flags = vec![switch("--deep", "more", &mut a), count("--ranks", "world size", &mut b)];
        let text = help("demo", "a demo plane", &flags);
        let rows: Vec<&str> = text.lines().skip(1).map(str::trim).collect();
        assert_eq!(rows.len(), flags.len());
        assert!(rows[0].starts_with("--deep ") && rows[0].ends_with("more"), "{text}");
        assert!(rows[1].starts_with("--ranks N>=1 ") && rows[1].ends_with("world size"), "{text}");
    }

    const TABLE: [(&str, u32); 3] = [("one", 1), ("two", 2), ("three", 3)];

    /// Runs the loop convicting every bug but `miss`; returns its result
    /// and the lines it printed.
    fn loop_over(
        which: &str,
        table: &[(&str, u32)],
        miss: u32,
    ) -> (Result<bool, String>, Vec<String>) {
        let mut lines = Vec::new();
        let convict = |_: &str, bug: &u32| {
            if *bug == miss {
                Err(format!("gate quiet on {bug}"))
            } else {
                Ok(format!("caught {bug}"))
            }
        };
        let r = run_self_test("demo", which, table, convict, &mut |l| lines.push(l));
        (r, lines)
    }

    #[test]
    fn all_runs_every_entry_and_a_name_runs_one() {
        let (r, lines) = loop_over("all", &TABLE, 0);
        assert_eq!(r, Ok(true));
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1], "xtask demo: seed two CONVICTED\n  caught 2");
        assert_eq!(lines[3], "xtask demo: 3/3 seeded bugs detected");
        let (r, lines) = loop_over("two", &TABLE, 0);
        assert_eq!(r, Ok(true));
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn unknown_name_lists_the_known_ones() {
        let (r, lines) = loop_over("four", &TABLE, 0);
        let e = r.unwrap_err();
        assert!(e.contains("`four`") && e.contains("one, two, three, all"), "{e}");
        assert!(lines.is_empty(), "nothing runs for an unknown name");
    }

    #[test]
    fn one_miss_fails_the_run() {
        let (r, lines) = loop_over("all", &TABLE, 2);
        assert_eq!(r, Ok(false));
        assert_eq!(lines[1], "xtask demo: seed two MISSED — gate quiet on 2");
        assert_eq!(lines[3], "xtask demo: 2/3 seeded bugs detected");
    }

    #[test]
    fn empty_table_is_a_failure() {
        let none: [(&str, u32); 0] = [];
        let (r, lines) = loop_over("all", &none, 0);
        assert_eq!(r, Ok(false));
        assert_eq!(lines, ["xtask demo: 0/0 seeded bugs detected"]);
    }
}
