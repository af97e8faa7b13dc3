//! Token helpers of the line-oriented text state format: the readers of
//! [`OverlayGraph::write_state`](crate::OverlayGraph::write_state) and
//! [`ParityDsu::write_state`](crate::ParityDsu::write_state) use them,
//! and so does the router's checkpoint parser around those sections.
//! Every error is a message naming the offending token.

use std::str::{FromStr, SplitWhitespace};

/// The tokens of a line after its leading `tag`.
pub fn fields<'a>(line: &'a str, tag: &str) -> Result<SplitWhitespace<'a>, String> {
    let mut toks = line.split_whitespace();
    if toks.next() != Some(tag) {
        return Err(format!("expected a `{tag}` line, got `{line}`"));
    }
    Ok(toks)
}

/// The next token, parsed.
pub fn next<T: FromStr>(toks: &mut SplitWhitespace<'_>, what: &str) -> Result<T, String> {
    let tok = toks.next().ok_or_else(|| format!("missing {what}"))?;
    num(tok)
}

/// One token, parsed.
pub fn num<T: FromStr>(tok: &str) -> Result<T, String> {
    tok.parse().map_err(|_| format!("bad number `{tok}`"))
}

/// One token as an index below `len`.
pub fn index(tok: &str, len: usize) -> Result<usize, String> {
    let i: usize = num(tok)?;
    if i < len {
        Ok(i)
    } else {
        Err(format!("index {i} out of range (len {len})"))
    }
}

/// A `0`/`1` token.
pub fn flag(tok: &str) -> Result<bool, String> {
    match tok {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("bad flag `{tok}`")),
    }
}

/// The records of a `tag count a,b,... a,b,...` line, each split into
/// exactly `arity` comma-separated fields.
pub fn record<'a>(line: &'a str, tag: &str, arity: usize) -> Result<Vec<Vec<&'a str>>, String> {
    let mut toks = fields(line, tag)?;
    let count: usize = next(&mut toks, "count")?;
    let out: Vec<Vec<&str>> = toks.map(|t| t.split(',').collect()).collect();
    if out.len() != count {
        return Err(format!(
            "`{tag}` count says {count}, line has {}",
            out.len()
        ));
    }
    if let Some(bad) = out.iter().find(|r| r.len() != arity) {
        return Err(format!(
            "`{tag}` record `{}` needs {arity} fields",
            bad.join(",")
        ));
    }
    Ok(out)
}
