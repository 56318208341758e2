//! A closed-loop HTTP client for the daemon, and an independent parser
//! for its flat answer objects.

use crate::adapter::Answer;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One HTTP/1.1 keep-alive connection to `POST /decide`; reconnects when
/// the server announces `Connection: close`.
pub struct HttpClient {
    addr: SocketAddr,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
    request: Vec<u8>,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let mut c = Self {
            addr,
            conn: None,
            request: Vec::new(),
        };
        c.open()?;
        Ok(c)
    }

    fn open(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.conn = Some((BufReader::new(stream.try_clone()?), stream));
        Ok(())
    }

    /// Posts one body and blocks for `(status, body)`.
    pub fn call(&mut self, body: &[u8], out: &mut Vec<u8>) -> io::Result<u16> {
        if self.conn.is_none() {
            self.open()?;
        }
        let (reader, writer) = self.conn.as_mut().expect("connection just opened");
        self.request.clear();
        write!(
            self.request,
            "POST /decide HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body);
        writer.write_all(&self.request)?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {line:?}"),
                )
            })?;
        let (mut length, mut close) = (None, false);
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                let v = v.trim();
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.parse::<usize>().ok();
                } else if k.eq_ignore_ascii_case("connection") {
                    close = v.eq_ignore_ascii_case("close");
                }
            }
        }
        let n = length
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no Content-Length"))?;
        out.resize(n, 0);
        reader.read_exact(out)?;
        if close {
            self.conn = None;
        }
        Ok(status)
    }
}

/// A decision answer as read off the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireAnswer {
    pub answer: Answer,
    pub checkpoint_now: Option<bool>,
}

#[derive(Debug, PartialEq)]
enum Value<'a> {
    Str(&'a str),
    Num(f64, &'a str),
    Bool(bool),
    Null,
}

/// Parses a flat JSON object of strings, numbers, booleans and nulls.
fn flat_object(text: &str) -> Result<Vec<(&str, Value<'_>)>, String> {
    let s = text.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let mut fields = Vec::new();
    let mut rest = inner.trim_start();
    while !rest.is_empty() {
        let r = rest.strip_prefix('"').ok_or("expected a key")?;
        let end = r.find('"').ok_or("unterminated key")?;
        let key = &r[..end];
        let r = r[end + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or("expected `:`")?
            .trim_start();
        let (value, r) = if let Some(r) = r.strip_prefix('"') {
            let end = r.find(['"', '\\']).ok_or("unterminated string")?;
            if r.as_bytes()[end] == b'\\' {
                return Err("escapes are not expected in answers".into());
            }
            (Value::Str(&r[..end]), &r[end + 1..])
        } else {
            let end = r.find([',', '}']).unwrap_or(r.len());
            let tok = r[..end].trim();
            let v = match tok {
                "true" => Value::Bool(true),
                "false" => Value::Bool(false),
                "null" => Value::Null,
                _ => Value::Num(
                    tok.parse::<f64>()
                        .map_err(|_| format!("bad value `{tok}`"))?,
                    tok,
                ),
            };
            (v, &r[end..])
        };
        fields.push((key, value));
        let r = r.trim_start();
        rest = match r.strip_prefix(',') {
            Some(r) => r.trim_start(),
            None if r.is_empty() => r,
            None => return Err(format!("unexpected `{r}`")),
        };
    }
    Ok(fields)
}

/// Parses and validates one answer: a `source`, finite `x_opt` and
/// `expected_work`, an integer `n_opt`, a finite or null `w_int`.
pub fn parse_answer(text: &str) -> Result<WireAnswer, String> {
    let fields = flat_object(text).map_err(|e| format!("{e} in {text:?}"))?;
    let get = |k: &str| fields.iter().find(|(n, _)| *n == k).map(|(_, v)| v);
    let num = |k: &str| match get(k) {
        Some(Value::Num(v, _)) if v.is_finite() => Ok(*v),
        other => Err(format!(
            "field `{k}` is {other:?}, not a finite number, in {text:?}"
        )),
    };
    let lattice = match get("source") {
        Some(Value::Str("lattice")) => true,
        Some(Value::Str("exact")) => false,
        other => return Err(format!("bad `source` {other:?} in {text:?}")),
    };
    let n_opt = match get("n_opt") {
        Some(Value::Num(_, tok)) => tok
            .parse::<u64>()
            .map_err(|_| format!("bad n_opt in {text:?}"))?,
        other => return Err(format!("bad `n_opt` {other:?} in {text:?}")),
    };
    let w_int = match get("w_int") {
        Some(Value::Null) => None,
        Some(_) => Some(num("w_int")?),
        None => return Err(format!("missing `w_int` in {text:?}")),
    };
    let checkpoint_now = match get("checkpoint_now") {
        Some(Value::Bool(b)) => Some(*b),
        None => None,
        other => return Err(format!("bad `checkpoint_now` {other:?} in {text:?}")),
    };
    Ok(WireAnswer {
        answer: Answer {
            lattice,
            x_opt: num("x_opt")?,
            n_opt,
            expected_work: num("expected_work")?,
            w_int,
        },
        checkpoint_now,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_daemon_answers() {
        let a = parse_answer(
            r#"{"source":"lattice","x_opt":4.5,"n_opt":6,"expected_work":15.75,"w_int":20.26,"checkpoint_now":false}"#,
        )
        .unwrap();
        assert!(a.answer.lattice);
        assert_eq!(a.answer.n_opt, 6);
        assert_eq!(a.answer.w_int, Some(20.26));
        assert_eq!(a.checkpoint_now, Some(false));
        let b = parse_answer(
            r#"{"source":"exact","x_opt":1,"n_opt":0,"expected_work":0,"w_int":null}"#,
        )
        .unwrap();
        assert_eq!(b.answer.w_int, None);
    }

    #[test]
    fn rejects_errors_and_garbage() {
        assert!(parse_answer(r#"{"error":{"kind":"timeout","message":"x"}}"#).is_err());
        assert!(parse_answer(
            r#"{"source":"exact","x_opt":null,"n_opt":1,"expected_work":1,"w_int":null}"#
        )
        .is_err());
        assert!(parse_answer(
            r#"{"source":"lattice","x_opt":1,"n_opt":1.5,"expected_work":1,"w_int":2}"#
        )
        .is_err());
        assert!(parse_answer("{\"source\":\"lattice\",\"x_opt\":1").is_err());
    }
}
