//! The first byte of every frame the workspace puts on a wire.
//!
//! Receivers that share a socket tell frame kinds apart by their first
//! byte alone, so every tag that can open a frame is declared here and a
//! unit test keeps them pairwise distinct. The values are the wire format:
//! changing one breaks every peer and every pinned known answer.

/// Engine PDUs (§4), one tag per variant: [`Pdu::Data`](crate::Pdu::Data).
pub const DATA: u8 = 1;
/// [`Pdu::Request`](crate::Pdu::Request).
pub const REQUEST: u8 = 2;
/// [`Pdu::Decision`](crate::Pdu::Decision).
pub const DECISION: u8 = 3;
/// [`Pdu::RecoveryRq`](crate::Pdu::RecoveryRq).
pub const RECOVERY_RQ: u8 = 4;
/// [`Pdu::RecoveryReply`](crate::Pdu::RecoveryReply).
pub const RECOVERY_REPLY: u8 = 5;
/// [`Pdu::RecoveryBatchRq`](crate::Pdu::RecoveryBatchRq).
pub const RECOVERY_BATCH_RQ: u8 = 6;
/// [`Pdu::RecoveryBatch`](crate::Pdu::RecoveryBatch).
pub const RECOVERY_BATCH: u8 = 7;

/// Client/server group frames (§3, `urcgc::groups`): an engine PDU
/// between servers.
pub const CS_URCGC: u8 = 0x40;
/// A client's request to its home server.
pub const CS_CLIENT_RQ: u8 = 0x41;
/// A server's reply to a client.
pub const CS_REPLY: u8 = 0x42;
/// A processed message forwarded to the clients of a diffusion group.
pub const CS_DIFFUSION: u8 = 0x43;

/// URGC total-order baseline frames: data.
pub const URGC_DATA: u8 = 0x60;
/// URGC: the coordinator's batch of order assignments.
pub const URGC_BATCH: u8 = 0x61;
/// URGC: a request to resend one message.
pub const URGC_FETCH: u8 = 0x62;
/// URGC: a request for the order suffix from a given position.
pub const URGC_FETCH_ORDER: u8 = 0x63;
/// URGC: the coordinator's global order length.
pub const URGC_DIGEST: u8 = 0x64;

/// Group envelope ([`crate::group`]): one shared wire, many groups.
pub const GROUP: u8 = 0x67;

/// Overlay relay envelope (`urcgc_transport::relay`).
pub const RELAY: u8 = 0xE7;

/// T-service frames (`urcgc_transport::TFrame`): a data fragment.
pub const T_DATA: u8 = 0xD1;
/// T-service: the XOR parity of a multi-fragment transfer.
pub const T_PARITY: u8 = 0xD2;
/// T-service: the acknowledgement of a fully received transfer.
pub const T_ACK: u8 = 0xA1;
/// T-service: frames for one destination coalesced into one.
pub const T_BATCH: u8 = 0xB7;

/// The runtime's startup-barrier hello: `[tag, pid_lo, pid_hi]`.
pub const HELLO: u8 = 0xFF;
/// The answer a member past its barrier gives to a hello. Inside a barrier
/// it counts as presence like a hello; it is never itself answered —
/// answering hellos with hellos made two members past their barriers echo
/// each other for ever.
pub const HELLO_ACK: u8 = 0xFE;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_two_frame_kinds_share_a_first_byte() {
        let all = [
            DATA,
            REQUEST,
            DECISION,
            RECOVERY_RQ,
            RECOVERY_REPLY,
            RECOVERY_BATCH_RQ,
            RECOVERY_BATCH,
            CS_URCGC,
            CS_CLIENT_RQ,
            CS_REPLY,
            CS_DIFFUSION,
            URGC_DATA,
            URGC_BATCH,
            URGC_FETCH,
            URGC_FETCH_ORDER,
            URGC_DIGEST,
            GROUP,
            RELAY,
            T_DATA,
            T_PARITY,
            T_ACK,
            T_BATCH,
            HELLO,
            HELLO_ACK,
        ];
        let distinct: std::collections::BTreeSet<u8> = all.into_iter().collect();
        assert_eq!(distinct.len(), all.len(), "{all:02x?}");
    }
}
