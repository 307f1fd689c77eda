//! Network cost parameters.

use gamma_des::SimTime;

/// Cost/shape parameters of the token ring and its datagram protocol.
///
/// The defaults approximate the paper's hardware: an 80 Mbit/s Proteon ring
/// connecting 0.6-MIPS VAX 11/750s whose per-packet protocol path (sliding
/// window, checksums, buffer management) costs on the order of a couple of
/// thousand instructions — i.e. milliseconds of CPU — while short-circuited
/// local messages reduce to a queue hand-off.
#[derive(Debug, Clone, PartialEq)]
pub struct RingConfig {
    /// Maximum packet payload in bytes (Gamma used 2 KB packets).
    pub packet_bytes: u64,
    /// Shared ring capacity in bytes/second (80 Mbit/s = 10 MB/s).
    pub bandwidth_bytes_per_sec: u64,
    /// Sender protocol CPU per packet.
    pub send_cpu_per_packet: SimTime,
    /// Receiver protocol CPU per packet.
    pub recv_cpu_per_packet: SimTime,
    /// Sender CPU to marshal one tuple into an outgoing packet buffer.
    pub marshal_cpu_per_tuple: SimTime,
    /// Receiver CPU to unmarshal one tuple from a packet buffer.
    pub unmarshal_cpu_per_tuple: SimTime,
    /// CPU for a short-circuited (same node) message hand-off.
    pub shortcircuit_cpu_per_msg: SimTime,
    /// CPU to move one tuple through a short-circuited message.
    pub shortcircuit_cpu_per_tuple: SimTime,
    /// Network-interface occupancy is `bytes / bandwidth` per packet; this
    /// extra per-packet latency models media access (token acquisition).
    pub media_access_latency: SimTime,
    /// CPU on the receiver to process one control message.
    pub control_cpu_per_msg: SimTime,
}

impl RingConfig {
    /// Parameters approximating Gamma's 1989 hardware.
    pub fn gamma_1989() -> Self {
        RingConfig {
            packet_bytes: 2048,
            bandwidth_bytes_per_sec: 10_000_000,
            send_cpu_per_packet: SimTime::from_us(8_000),
            recv_cpu_per_packet: SimTime::from_us(8_000),
            marshal_cpu_per_tuple: SimTime::from_us(600),
            unmarshal_cpu_per_tuple: SimTime::from_us(600),
            shortcircuit_cpu_per_msg: SimTime::from_us(150),
            shortcircuit_cpu_per_tuple: SimTime::from_us(50),
            media_access_latency: SimTime::from_us(50),
            control_cpu_per_msg: SimTime::from_us(3_000),
        }
    }

    /// How many whole packets a `bytes`-sized payload needs.
    pub fn packets_for(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            0
        } else {
            bytes.div_ceil(self.packet_bytes)
        }
    }

    /// Network-interface occupancy of one packet carrying `bytes` payload.
    pub fn wire_time(&self, bytes: u64) -> SimTime {
        // u128 intermediate: `bytes * 1_000_000` overflows u64 beyond
        // ~18 TB, and a saturating product silently underestimates.
        let us =
            (u128::from(bytes) * 1_000_000u128).div_ceil(u128::from(self.bandwidth_bytes_per_sec));
        SimTime::from_us(u64::try_from(us).unwrap_or(u64::MAX)) + self.media_access_latency
    }
}

impl Default for RingConfig {
    fn default() -> Self {
        Self::gamma_1989()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_for_rounds_up() {
        let c = RingConfig::gamma_1989();
        assert_eq!(c.packets_for(0), 0);
        assert_eq!(c.packets_for(1), 1);
        assert_eq!(c.packets_for(2048), 1);
        assert_eq!(c.packets_for(2049), 2);
        assert_eq!(c.packets_for(4096), 2);
    }

    #[test]
    fn wire_time_scales_with_bytes() {
        let c = RingConfig::gamma_1989();
        // 2048 bytes at 10 MB/s is 204.8 µs -> 205 rounded up, plus media access.
        assert_eq!(
            c.wire_time(2048),
            SimTime::from_us(205) + c.media_access_latency
        );
        assert!(c.wire_time(4096) > c.wire_time(1024));
    }

    #[test]
    fn wire_time_survives_u64_overflow() {
        // 100 TB at 10 MB/s is 1e13 µs; the old saturating u64 product
        // clamped this to ~1.8e12 µs.
        let c = RingConfig::gamma_1989();
        assert_eq!(
            c.wire_time(100_000_000_000_000),
            SimTime::from_us(10_000_000_000_000) + c.media_access_latency
        );
    }

    #[test]
    fn default_is_gamma_1989() {
        assert_eq!(RingConfig::default(), RingConfig::gamma_1989());
    }
}
