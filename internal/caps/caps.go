// Package caps defines the driver capability records that parameterize the
// newmad optimization engine, together with a database of predefined
// profiles for the network technologies the paper discusses (Myrinet/MX,
// Quadrics/Elan, InfiniBand) and two commodity substitutes (TCP/GigE and an
// emulated WAN).
//
// The paper's first design rule is that "all these decisions must be
// consistent with the capabilities of the underlying network drivers": a
// strategy may only plan a gather-send if the driver supports enough iovec
// entries, may only choose PIO below the PIO size limit, and so on. Every
// such decision point in internal/strategy reads from a Caps value, never
// from technology-specific code.
package caps

import (
	"fmt"
	"sort"

	"newmad/internal/simnet"
)

// Caps describes what one network driver/NIC pair can do and what it costs.
// All durations are virtual time.
type Caps struct {
	// Name identifies the profile ("mx", "elan", ...).
	Name string

	// --- Per-request overheads -------------------------------------------

	// PostOverhead is the host-side cost of posting any send request to the
	// NIC (doorbell write, descriptor build). This is the α that
	// aggregation amortizes.
	PostOverhead simnet.Duration
	// WireLatency is the one-way propagation + switching latency.
	WireLatency simnet.Duration
	// RecvOverhead is the receiver-side per-packet cost (demux, completion).
	RecvOverhead simnet.Duration
	// PacketHeader is the on-wire framing overhead in bytes added to every
	// network transaction (not to every aggregated sub-packet; sub-packet
	// framing is the optimizer's own wire format and accounted separately).
	PacketHeader int

	// --- Bandwidths --------------------------------------------------------

	// Bandwidth is the link serialization rate in bytes/second.
	Bandwidth float64

	// --- Transfer modes ----------------------------------------------------

	// PIOMax is the largest payload the driver will send by programmed I/O.
	// PIO has no DMA setup cost but occupies the host CPU; the model charges
	// PIOCostPerByte on the host side instead of DMA setup.
	PIOMax         int
	PIOCostPerByte simnet.Duration
	// DMASetup is the fixed cost of programming a DMA descriptor; DMA
	// requires registered (pinned) memory.
	DMASetup simnet.Duration

	// --- Aggregation-relevant limits --------------------------------------

	// MaxIOV is the number of gather entries one send can carry; 1 means no
	// gather/scatter, so aggregation must stage through a copy.
	MaxIOV int
	// MaxAggregate is the largest frame the driver accepts for an eager /
	// aggregated send; larger messages must use rendezvous.
	MaxAggregate int
	// MTU is the wire maximum transfer unit; frames beyond it are segmented
	// by the link layer (cost modeled per segment by ChannelTime).
	MTU int

	// --- Protocols ---------------------------------------------------------

	// RndvThreshold is the payload size above which the driver's native
	// rendezvous protocol beats eager+copy (profile default; strategies may
	// override per the rndvswitch ablation).
	RndvThreshold int

	// --- Multiplexing ------------------------------------------------------

	// Channels is the number of independent virtualized send units the NIC
	// exposes (the "network multiplexing units" the paper pools together).
	Channels int

	// --- Wire emulation ----------------------------------------------------

	// EmulateWire asks real-socket drivers to enforce this record's wire
	// model: each posted frame occupies its send unit for
	// (size+PacketHeader)/Bandwidth of wall-clock time, shared across the
	// rail like a NIC's serialization pipe. A plain TCP rail then
	// reproduces the bandwidth class of the technology it stands in for,
	// which is what makes heterogeneous multi-rail scenarios expressible
	// on localhost sockets (exp X4). Profiles without the flag run at host
	// speed; simulated drivers ignore it (they always model the wire).
	EmulateWire bool
}

// Validate reports the first inconsistency in the capability record.
func (c Caps) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("caps: empty profile name")
	case c.Bandwidth <= 0:
		return fmt.Errorf("caps %s: bandwidth must be positive", c.Name)
	case c.PostOverhead < 0 || c.WireLatency < 0 || c.RecvOverhead < 0:
		return fmt.Errorf("caps %s: negative overhead", c.Name)
	case c.MaxIOV < 1:
		return fmt.Errorf("caps %s: MaxIOV must be >= 1", c.Name)
	case c.MaxAggregate < 1:
		return fmt.Errorf("caps %s: MaxAggregate must be >= 1", c.Name)
	case c.MTU < 64:
		return fmt.Errorf("caps %s: MTU %d unreasonably small", c.Name, c.MTU)
	case c.Channels < 1:
		return fmt.Errorf("caps %s: need at least one channel", c.Name)
	case c.PIOMax < 0:
		return fmt.Errorf("caps %s: negative PIOMax", c.Name)
	case c.RndvThreshold < 0:
		return fmt.Errorf("caps %s: negative RndvThreshold", c.Name)
	}
	return nil
}

// Gather reports whether the driver can gather multiple iovecs in hardware.
func (c Caps) Gather() bool { return c.MaxIOV > 1 }

// ChannelTime is the charge of one frame of frameBytes encoded bytes
// carrying payload application bytes: how long it holds a send channel —
// PostOverhead, then PIO for a data frame of at most PIOMax payload bytes or
// DMASetup otherwise, then serialization — and the bytes it puts on the
// wire, one PacketHeader per MTU segment included. The simulated driver
// charges exactly this and the strategies' cost estimate predicts with it.
func (c Caps) ChannelTime(frameBytes, payload int, data bool) (busy simnet.Duration, wireBytes int) {
	busy = c.PostOverhead
	if data && payload <= c.PIOMax {
		busy += simnet.Duration(payload) * c.PIOCostPerByte
	} else {
		busy += c.DMASetup
	}
	wireBytes = frameBytes + c.PacketHeader
	if c.MTU > 0 && wireBytes > c.MTU {
		segs := (wireBytes + c.MTU - 1) / c.MTU
		wireBytes += (segs - 1) * c.PacketHeader
	}
	return busy + simnet.BandwidthTime(wireBytes, c.Bandwidth), wireBytes
}

// Rail derives the capability record for rail k of a multi-rail node: the
// same limits and costs under a distinct name ("tcp.r0", "tcp.r1", ...), so
// several rails built from one base profile stay individually addressable —
// drivers require distinct rail names and per-rail statistics are keyed by
// profile name.
func (c Caps) Rail(k int) Caps {
	c.Name = fmt.Sprintf("%s.r%d", c.Name, k)
	return c
}

// RailProfiles derives n uniquely named per-rail variants of base — the
// homogeneous multi-rail case (n identical NICs). Heterogeneous nodes build
// their profile list by hand from distinct base profiles instead.
func RailProfiles(base Caps, n int) []Caps {
	out := make([]Caps, n)
	for i := range out {
		out[i] = base.Rail(i)
	}
	return out
}

// EngineOrder returns a copy of profiles in the order an engine indexes a
// node's rails — the order a strategy.NewScheduledRail table must use.
//
// core.New sorts rails by Driver.Name(), and every driver embeds its profile
// name followed by '@' ("mesh:<profile>@n<id>", "<profile>@n<id>"), so the
// comparison here is on Name+"@". Sorting bare names diverges whenever one
// profile name is a strict prefix of another ("net" vs "net2": '@' > '2',
// so the engine orders net2 first), and a mis-indexed rail table pins
// control traffic to the wrong rail.
func EngineOrder(profiles []Caps) []Caps {
	out := append([]Caps(nil), profiles...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name+"@" < out[j].Name+"@" })
	return out
}

// String renders a single-line summary.
func (c Caps) String() string {
	return fmt.Sprintf("%s: α=%v wire=%v bw=%.0fMB/s pio<=%dB iov=%d agg<=%dB rndv>%dB ch=%d",
		c.Name, c.PostOverhead, c.WireLatency, c.Bandwidth/1e6, c.PIOMax,
		c.MaxIOV, c.MaxAggregate, c.RndvThreshold, c.Channels)
}

// Predefined profiles. Numbers are representative of published 2006-era
// microbenchmarks (MX over Myrinet-2000, QsNetII Elan4, Mellanox IB SDR,
// GigE TCP); the reproduction depends on their relative shape, not their
// absolute values.
var (
	// MX models Myrinet-2000 with the MX driver: ~3 µs short-message
	// latency, 250 MB/s, rich gather support, 32 KiB eager limit.
	MX = Caps{
		Name:           "mx",
		PostOverhead:   900 * simnet.Nanosecond,
		WireLatency:    1700 * simnet.Nanosecond,
		RecvOverhead:   500 * simnet.Nanosecond,
		PacketHeader:   16,
		Bandwidth:      250e6,
		PIOMax:         128,
		PIOCostPerByte: 2 * simnet.Nanosecond,
		DMASetup:       600 * simnet.Nanosecond,
		MaxIOV:         16,
		MaxAggregate:   32 * 1024,
		MTU:            4096,
		RndvThreshold:  32 * 1024,
		Channels:       4,
	}

	// Elan models Quadrics QsNetII Elan4: ~1.5 µs latency, 900 MB/s, large
	// PIO window, true RDMA, but no gather on DMA sends (aggregation must
	// copy through a staging buffer).
	Elan = Caps{
		Name:           "elan",
		PostOverhead:   400 * simnet.Nanosecond,
		WireLatency:    800 * simnet.Nanosecond,
		RecvOverhead:   300 * simnet.Nanosecond,
		PacketHeader:   8,
		Bandwidth:      900e6,
		PIOMax:         2048,
		PIOCostPerByte: 1 * simnet.Nanosecond,
		DMASetup:       500 * simnet.Nanosecond,
		MaxIOV:         1,
		MaxAggregate:   16 * 1024,
		MTU:            4096,
		RndvThreshold:  16 * 1024,
		Channels:       4,
	}

	// IB models InfiniBand SDR 4x verbs: ~4 µs latency, ~950 MB/s, 4-entry
	// SGE lists, RDMA.
	IB = Caps{
		Name:           "ib",
		PostOverhead:   1300 * simnet.Nanosecond,
		WireLatency:    2400 * simnet.Nanosecond,
		RecvOverhead:   700 * simnet.Nanosecond,
		PacketHeader:   32,
		Bandwidth:      950e6,
		PIOMax:         0, // verbs has inline sends; modeled via PIOMax=188 in IBInline
		PIOCostPerByte: 0,
		DMASetup:       900 * simnet.Nanosecond,
		MaxIOV:         4,
		MaxAggregate:   8 * 1024,
		MTU:            2048,
		RndvThreshold:  8 * 1024,
		Channels:       8,
	}

	// TCP models kernel TCP over gigabit Ethernet on the same 2006 nodes:
	// tens of microseconds of stack latency, 117 MB/s.
	TCP = Caps{
		Name:           "tcp",
		PostOverhead:   9 * simnet.Microsecond,
		WireLatency:    28 * simnet.Microsecond,
		RecvOverhead:   8 * simnet.Microsecond,
		PacketHeader:   66,
		Bandwidth:      117e6,
		PIOMax:         0,
		PIOCostPerByte: 0,
		DMASetup:       2 * simnet.Microsecond,
		MaxIOV:         64, // writev
		MaxAggregate:   64 * 1024,
		MTU:            1500,
		RndvThreshold:  64 * 1024,
		Channels:       2,
	}

	// WAN models an emulated wide-area path (the calibration note's
	// "emulated WAN"): 5 ms one-way latency, 100 MB/s. Aggregation gains
	// are dramatic here because α (effectively the RTT share) dominates.
	WAN = Caps{
		Name:           "wan",
		PostOverhead:   10 * simnet.Microsecond,
		WireLatency:    5 * simnet.Millisecond,
		RecvOverhead:   10 * simnet.Microsecond,
		PacketHeader:   66,
		Bandwidth:      100e6,
		PIOMax:         0,
		PIOCostPerByte: 0,
		DMASetup:       2 * simnet.Microsecond,
		MaxIOV:         64,
		MaxAggregate:   256 * 1024,
		MTU:            1500,
		RndvThreshold:  256 * 1024,
		Channels:       2,
	}
)

// registry is the capability database; Register extends it, mirroring the
// paper's "easily extendable database" requirement at the capability level.
var registry = map[string]Caps{}

func init() {
	for _, c := range []Caps{MX, Elan, IB, TCP, WAN} {
		MustRegister(c)
	}
	// IBInline is IB with verbs inline sends enabled (payload copied into
	// the descriptor, skipping one DMA read) — used by the PIO/DMA
	// threshold ablation in E7.
	inline := IB
	inline.Name = "ib-inline"
	inline.PIOMax = 188
	inline.PIOCostPerByte = 1 * simnet.Nanosecond
	MustRegister(inline)
}

// Register adds a profile to the database. Re-registering a name replaces
// the profile (useful in tests); invalid profiles are rejected.
func Register(c Caps) error {
	if err := c.Validate(); err != nil {
		return err
	}
	registry[c.Name] = c
	return nil
}

// MustRegister is Register, panicking on error; for init-time profiles.
func MustRegister(c Caps) {
	if err := Register(c); err != nil {
		panic(err)
	}
}

// Lookup returns the named profile.
func Lookup(name string) (Caps, bool) {
	c, ok := registry[name]
	return c, ok
}

// Names returns the sorted profile names in the database.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
