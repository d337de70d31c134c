//! End-to-end tests of the `axml` command-line tool.

use std::path::PathBuf;
use std::process::{Child, Command};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_axml"))
}

/// A fixture directory of one test's own, removed when dropped: tests
/// run in parallel, and a shared directory would let one test truncate a
/// schema another is reading.
struct FixtureDir(PathBuf);

impl Drop for FixtureDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A spawned daemon that is killed when dropped, so a failing assertion
/// cannot leave it running with the test runner's stdout open.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

const STAR_DSL: &str = r#"
element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit*)
element title     = data
element date      = data
element temp      = data
element city      = data
element exhibit   = title.(Get_Date | date)
element performance = data
function Get_Temp : city -> temp
function TimeOut  : data -> (exhibit | performance)*
function Get_Date : title -> date
root newspaper
"#;

const STAR2_DSL: &str = r#"
element newspaper = title.date.temp.(TimeOut | exhibit*)
element title     = data
element date      = data
element temp      = data
element city      = data
element exhibit   = title.(Get_Date | date)
element performance = data
function Get_Temp : city -> temp
function TimeOut  : data -> (exhibit | performance)*
function Get_Date : title -> date
root newspaper
"#;

const STAR3_DSL: &str = r#"
element newspaper = title.date.temp.exhibit*
element title     = data
element date      = data
element temp      = data
element city      = data
element exhibit   = title.(Get_Date | date)
element performance = data
function Get_Temp : city -> temp
function TimeOut  : data -> (exhibit | performance)*
function Get_Date : title -> date
root newspaper
"#;

fn write_fixtures(test: &str) -> (FixtureDir, PathBuf, PathBuf, PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("axml-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let star = dir.join("star.schema");
    let star2 = dir.join("star2.schema");
    let star3 = dir.join("star3.schema");
    let doc = dir.join("newspaper.xml");
    std::fs::write(&star, STAR_DSL).unwrap();
    std::fs::write(&star2, STAR2_DSL).unwrap();
    std::fs::write(&star3, STAR3_DSL).unwrap();
    std::fs::write(
        &doc,
        axml::schema::newspaper_example().to_xml().to_pretty_xml(),
    )
    .unwrap();
    (FixtureDir(dir), star, star2, star3, doc)
}

#[test]
fn validate_accepts_and_rejects() {
    let (_dir, star, star2, _star3, doc) = write_fixtures("validate_accepts_and_rejects");
    let ok = bin()
        .args(["validate"])
        .arg(&star)
        .arg(&doc)
        .output()
        .unwrap();
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(String::from_utf8_lossy(&ok.stdout).contains("valid"));

    // Against (**) the intensional document is invalid.
    let bad = bin()
        .args(["validate"])
        .arg(&star2)
        .arg(&doc)
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stdout).contains("invalid"));

    // Streaming mode agrees.
    let ok = bin()
        .args(["validate"])
        .arg(&star)
        .arg(&doc)
        .arg("--stream")
        .output()
        .unwrap();
    assert!(ok.status.success());
}

#[test]
fn plan_reports_safety() {
    let (_dir, _star, star2, star3, doc) = write_fixtures("plan_reports_safety");
    let safe = bin()
        .args(["plan"])
        .arg(&star2)
        .arg(&doc)
        .args(["--k", "1"])
        .output()
        .unwrap();
    assert!(safe.status.success());
    assert!(String::from_utf8_lossy(&safe.stdout).contains("safe: yes"));

    let unsafe_out = bin()
        .args(["plan"])
        .arg(&star3)
        .arg(&doc)
        .args(["--k", "1"])
        .output()
        .unwrap();
    assert_eq!(unsafe_out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&unsafe_out.stdout).contains("safe: no"));

    // Possible analysis still succeeds on (***).
    let possible = bin()
        .args(["plan"])
        .arg(&star3)
        .arg(&doc)
        .args(["--k", "1", "--possible"])
        .output()
        .unwrap();
    assert!(possible.status.success());
    assert!(String::from_utf8_lossy(&possible.stdout).contains("possible: yes"));
}

#[test]
fn rewrite_executes_against_simulated_services() {
    let (_dir, _star, star2, _star3, doc) =
        write_fixtures("rewrite_executes_against_simulated_services");
    let out = bin()
        .args(["rewrite"])
        .arg(&star2)
        .arg(&doc)
        .args(["--k", "1", "--execute", "42"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("<temp>"),
        "temperature materialized:\n{stdout}"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("Get_Temp"));
}

#[test]
fn compat_matches_the_paper() {
    let (_dir, star, star2, star3, _doc) = write_fixtures("compat_matches_the_paper");
    let ok = bin()
        .args(["compat"])
        .arg(&star)
        .arg(&star2)
        .args(["--root", "newspaper", "--k", "1"])
        .output()
        .unwrap();
    assert!(ok.status.success());
    assert!(String::from_utf8_lossy(&ok.stdout).contains("compatible"));

    let bad = bin()
        .args(["compat"])
        .arg(&star)
        .arg(&star3)
        .args(["--root", "newspaper", "--k", "1"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stdout).contains("incompatible"));
}

#[test]
fn serve_and_send_roundtrip() {
    use std::io::BufRead;

    let (dir, star, star2, _star3, doc) = write_fixtures("serve_and_send_roundtrip");
    // An extensional front page, valid against both (*) and (**).
    let plain = dir.0.join("plain.xml");
    std::fs::write(
        &plain,
        "<newspaper><title>The Sun</title><date>04/10/2002</date><temp>15</temp></newspaper>",
    )
    .unwrap();

    // Daemon answering exactly two requests, then exiting gracefully.
    let mut daemon = Daemon(
        bin()
            .args(["serve"])
            .arg(&star)
            .args(["127.0.0.1:0", "--requests", "2", "--name", "cli-peer"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let mut lines = std::io::BufReader::new(daemon.0.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_owned();

    // 1: a conforming document is accepted and stored.
    let sent = bin()
        .args(["send"])
        .arg(&star)
        .arg(&addr)
        .arg(&plain)
        .args(["--name", "front"])
        .output()
        .unwrap();
    assert!(
        sent.status.success(),
        "{}{}",
        String::from_utf8_lossy(&sent.stdout),
        String::from_utf8_lossy(&sent.stderr)
    );
    assert!(String::from_utf8_lossy(&sent.stdout).contains("sent 'front'"));

    // 2: the intensional doc conforms to (*) client-side, but the
    // receiver enforces (*) too, so shipping it under the stricter (**)
    // exchange schema fails on the sender (no services to materialize
    // Get_Temp with).
    let refused = bin()
        .args(["send"])
        .arg(&star2)
        .arg(&addr)
        .arg(&doc)
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&refused.stdout).contains("send failed"));

    // The daemon needs one more answered request to reach its quota.
    let sent = bin()
        .args(["send"])
        .arg(&star)
        .arg(&addr)
        .arg(&plain)
        .output()
        .unwrap();
    assert!(sent.status.success());

    let status = daemon.0.wait().unwrap();
    assert!(status.success(), "daemon exit: {status:?}");
    let summary: Vec<String> = lines.map_while(Result::ok).collect();
    assert!(
        summary.iter().any(|l| l.contains("served 2 requests")),
        "{summary:?}"
    );
}

#[test]
fn bad_usage_and_missing_files() {
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["validate", "/nonexistent", "/nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flags_are_usage_errors() {
    let (_dir, star, _star2, _star3, doc) = write_fixtures("unknown_flags_are_usage_errors");
    // Retired and misspelt flags alike fail before any socket is touched.
    for (cmd, flag) in [
        ("serve", "--enforce"),
        ("send", "--enforce"),
        ("send", "--workers"),
        ("serve", "--reqests"),
    ] {
        let mut command = bin();
        command.arg(cmd).arg(&star).arg("127.0.0.1:9");
        if cmd == "send" {
            command.arg(&doc);
        }
        let out = command.args([flag, "2"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd} {flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag '{flag}'")),
            "{cmd} {flag}: {stderr}"
        );
    }
}
