//! Channel signal state: the SELF handshake tuple plus the data word.

/// The value of one elastic channel during one clock cycle.
///
/// Signal ownership follows the SELF protocol: the **producer** (the node
/// whose output port the channel leaves) drives `forward_valid` (`V+`),
/// `data` and `backward_stop` (`S-`); the **consumer** drives `forward_stop`
/// (`S+`) and `backward_valid` (`V-`). Tokens travel forward under
/// `(V+, S+)`, anti-tokens travel backward under `(V-, S-)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelState {
    /// `V+`: the producer offers a token.
    pub forward_valid: bool,
    /// `S+`: the consumer refuses the token this cycle.
    pub forward_stop: bool,
    /// `V-`: the consumer sends an anti-token backwards.
    pub backward_valid: bool,
    /// `S-`: the producer refuses the anti-token this cycle.
    pub backward_stop: bool,
    /// The data word accompanying `V+`.
    pub data: u64,
}

impl ChannelState {
    /// `true` when a token transfers through the channel this cycle
    /// (`V+ ∧ ¬S+`), unless it is annihilated by a simultaneous anti-token.
    pub fn forward_transfer(&self) -> bool {
        self.forward_valid && !self.forward_stop && !self.backward_transfer()
    }

    /// `true` when an anti-token transfers backwards (`V- ∧ ¬S-`).
    pub fn backward_transfer(&self) -> bool {
        self.backward_valid && !self.backward_stop
    }

    /// `true` when a token and an anti-token meet on the channel and cancel
    /// each other this cycle.
    pub fn annihilation(&self) -> bool {
        self.forward_valid && self.backward_transfer()
    }

    /// `true` when the producer offers a token that the consumer stops
    /// (a *Retry* cycle of the forward handshake).
    pub fn forward_retry(&self) -> bool {
        self.forward_valid && self.forward_stop && !self.backward_transfer()
    }

    /// The symbol used in Table-1 style traces: a data token, an anti-token
    /// (`-` in the paper), or a bubble (`*`).
    pub fn symbol(&self) -> TraceSymbol {
        if self.backward_valid {
            TraceSymbol::AntiToken
        } else if self.forward_valid {
            TraceSymbol::Token(self.data)
        } else {
            TraceSymbol::Bubble
        }
    }
}

/// The per-cycle channel content as printed in Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceSymbol {
    /// A valid data token with its value.
    Token(u64),
    /// An anti-token travelling backwards (`-` in the paper).
    AntiToken,
    /// Neither a token nor an anti-token (`*` in the paper).
    Bubble,
}

impl std::fmt::Display for TraceSymbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceSymbol::Token(value) => write!(f, "{value:#x}"),
            TraceSymbol::AntiToken => write!(f, "-"),
            TraceSymbol::Bubble => write!(f, "*"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_requires_valid_and_not_stop() {
        let state = ChannelState { forward_valid: true, ..ChannelState::default() };
        assert!(state.forward_transfer());

        let stopped = ChannelState { forward_valid: true, forward_stop: true, ..state };
        assert!(!stopped.forward_transfer());
        assert!(stopped.forward_retry());

        let idle = ChannelState::default();
        assert!(!idle.forward_transfer() && !idle.forward_retry());
    }

    #[test]
    fn annihilation_consumes_both_token_and_anti_token() {
        let state =
            ChannelState { forward_valid: true, backward_valid: true, ..ChannelState::default() };
        assert!(state.annihilation());
        assert!(!state.forward_transfer(), "an annihilated token is not delivered downstream");
        assert!(state.backward_transfer());
        assert!(!state.forward_retry(), "an annihilated token is not a retry either");
    }

    #[test]
    fn stopped_anti_tokens_are_backward_retries() {
        let state =
            ChannelState { backward_valid: true, backward_stop: true, ..ChannelState::default() };
        assert!(!state.backward_transfer());
        assert!(!state.annihilation(), "a stopped anti-token cancels nothing");
    }

    #[test]
    fn symbols_match_the_paper_notation() {
        let token = ChannelState { forward_valid: true, data: 0xA1, ..ChannelState::default() };
        assert_eq!(token.symbol(), TraceSymbol::Token(0xA1));
        assert_eq!(token.symbol().to_string(), "0xa1");

        let anti = ChannelState { backward_valid: true, ..ChannelState::default() };
        assert_eq!(anti.symbol(), TraceSymbol::AntiToken);
        assert_eq!(anti.symbol().to_string(), "-");

        assert_eq!(ChannelState::default().symbol(), TraceSymbol::Bubble);
        assert_eq!(ChannelState::default().symbol().to_string(), "*");
    }
}
