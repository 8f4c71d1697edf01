//! The reply oracle: every reply byte the benchmark receives is checked
//! against what the workload asked for.
//!
//! - Echo replies must repeat the request byte for byte, and no more.
//! - RPC replies must carry the requested length as a 4-byte LE prefix,
//!   followed by exactly that many `0x5A` bytes.
//! - A KV hit must equal the value of the last acknowledged put for that
//!   key. A miss is not checked: eviction on log wrap is a valid outcome.

use std::fmt;

/// A reply byte that differs from what the oracle expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Which check fired.
    pub what: &'static str,
    /// Byte offset into the reply.
    pub at: usize,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wrong reply: {} at byte {}", self.what, self.at)
    }
}

/// Progress through one echo reply.
#[derive(Debug, Default, Clone, Copy)]
pub struct EchoCheck {
    got: usize,
}

impl EchoCheck {
    /// Starts checking a new reply.
    pub fn reset(&mut self) {
        self.got = 0;
    }

    /// Checks the next received `chunk` against the request `sent`;
    /// returns whether the reply is complete.
    pub fn feed(&mut self, sent: &[u8], chunk: &[u8]) -> Result<bool, Mismatch> {
        let end = self.got + chunk.len();
        if end > sent.len() {
            return Err(Mismatch {
                what: "echo longer than request",
                at: sent.len(),
            });
        }
        if let Some(i) = sent[self.got..end]
            .iter()
            .zip(chunk)
            .position(|(a, b)| a != b)
        {
            return Err(Mismatch {
                what: "echo byte differs from request",
                at: self.got + i,
            });
        }
        self.got = end;
        Ok(self.got == sent.len())
    }
}

/// Progress through one length-prefixed RPC reply.
#[derive(Debug, Default, Clone, Copy)]
pub struct RpcCheck {
    want: u32,
    prefix: [u8; 4],
    got: usize,
}

/// RPC body byte the peer fills every response with.
pub const RPC_FILL: u8 = 0x5A;

impl RpcCheck {
    /// Starts checking a reply to a request for `want` body bytes.
    pub fn reset(&mut self, want: u32) {
        *self = RpcCheck {
            want,
            ..RpcCheck::default()
        };
    }

    /// Checks the next received `chunk`; returns whether the reply is
    /// complete. The prefix may arrive split across chunks.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<bool, Mismatch> {
        let total = 4 + self.want as usize;
        for &b in chunk {
            if self.got < 4 {
                self.prefix[self.got] = b;
                if self.got == 3 && u32::from_le_bytes(self.prefix) != self.want {
                    return Err(Mismatch {
                        what: "length prefix differs from request",
                        at: 0,
                    });
                }
            } else if self.got >= total {
                return Err(Mismatch {
                    what: "reply longer than its prefix",
                    at: self.got,
                });
            } else if b != RPC_FILL {
                return Err(Mismatch {
                    what: "body byte is not 0x5A",
                    at: self.got,
                });
            }
            self.got += 1;
        }
        Ok(self.got == total)
    }
}

/// Checks a KV hit against the last acknowledged put for its key
/// (`None` when the key was never put).
pub fn kv_hit(expected: Option<&[u8]>, got: &[u8]) -> Result<(), Mismatch> {
    let Some(want) = expected else {
        return Err(Mismatch {
            what: "hit for a key that was never put",
            at: 0,
        });
    };
    if want.len() != got.len() {
        return Err(Mismatch {
            what: "value length differs from last put",
            at: want.len().min(got.len()),
        });
    }
    match want.iter().zip(got).position(|(a, b)| a != b) {
        Some(at) => Err(Mismatch {
            what: "value byte differs from last put",
            at,
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_accepts_split_reply_and_rejects_mutations() {
        let sent = b"confidential";
        let mut c = EchoCheck::default();
        assert_eq!(c.feed(sent, b"confid"), Ok(false));
        assert_eq!(c.feed(sent, b"ential"), Ok(true));

        c.reset();
        let err = c.feed(sent, b"confiDential").unwrap_err();
        assert_eq!(err.at, 5);
        c.reset();
        assert!(c.feed(sent, b"confidential!").is_err());
    }

    #[test]
    fn rpc_checks_prefix_and_body() {
        let mut reply = 3u32.to_le_bytes().to_vec();
        reply.extend_from_slice(&[RPC_FILL; 3]);
        let mut c = RpcCheck::default();
        c.reset(3);
        assert_eq!(c.feed(&reply[..2]), Ok(false));
        assert_eq!(c.feed(&reply[2..]), Ok(true));

        for flip in 0..reply.len() {
            let mut bad = reply.clone();
            bad[flip] ^= 1;
            c.reset(3);
            assert!(c.feed(&bad).is_err(), "flip at {flip} accepted");
        }
        c.reset(3);
        let mut long = reply.clone();
        long.push(RPC_FILL);
        assert!(c.feed(&long).is_err());
    }

    #[test]
    fn kv_rejects_stale_short_and_phantom_values() {
        assert_eq!(kv_hit(Some(b"v2"), b"v2"), Ok(()));
        assert!(kv_hit(Some(b"v2"), b"v1").is_err());
        assert!(kv_hit(Some(b"v2"), b"v").is_err());
        assert!(kv_hit(None, b"v2").is_err());
    }
}
