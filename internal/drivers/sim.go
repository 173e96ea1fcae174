package drivers

import (
	"fmt"

	"newmad/internal/caps"
	"newmad/internal/memsim"
	"newmad/internal/nicsim"
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/stats"
)

// Sim adapts a nicsim.NIC to the Driver interface.
type Sim struct {
	nic *nicsim.NIC
}

var _ Driver = (*Sim)(nil)

// NewSim wraps an existing NIC model.
func NewSim(nic *nicsim.NIC) *Sim { return &Sim{nic: nic} }

// Name returns "<profile>@n<node>".
func (s *Sim) Name() string { return fmt.Sprintf("%s@n%d", s.nic.Caps().Name, s.nic.Node()) }

// Node returns the local node id.
func (s *Sim) Node() packet.NodeID { return s.nic.Node() }

// Caps returns the NIC's capability record.
func (s *Sim) Caps() caps.Caps { return s.nic.Caps() }

// Mem returns the NIC's host memory model.
func (s *Sim) Mem() memsim.Model { return s.nic.Mem() }

// NumChannels returns the NIC's channel count.
func (s *Sim) NumChannels() int { return s.nic.NumChannels() }

// ChannelIdle reports channel availability.
func (s *Sim) ChannelIdle(ch int) bool { return s.nic.ChannelIdle(ch) }

// FirstIdle returns the lowest idle channel.
func (s *Sim) FirstIdle() (int, bool) { return s.nic.FirstIdle() }

// Post forwards to the NIC, translating its busy error.
func (s *Sim) Post(ch int, f *packet.Frame, hostExtra simnet.Duration) error {
	err := s.nic.Post(ch, f, hostExtra)
	if err == nicsim.ErrChannelBusy {
		return ErrChannelBusy
	}
	return err
}

// SetIdleHandler installs the idle upcall.
func (s *Sim) SetIdleHandler(fn IdleFunc) {
	if fn == nil {
		s.nic.SetIdleHandler(nil)
		return
	}
	s.nic.SetIdleHandler(func(_ *nicsim.NIC, ch int) { fn(ch) })
}

// SetRecvHandler installs the delivery upcall.
func (s *Sim) SetRecvHandler(fn RecvFunc) {
	if fn == nil {
		s.nic.SetRecvHandler(nil)
		return
	}
	s.nic.SetRecvHandler(func(src packet.NodeID, f *packet.Frame) { fn(src, f) })
}

// Close is a no-op for simulated hardware.
func (s *Sim) Close() error { return nil }

// Cluster bundles the common experiment topology: one fabric per named
// technology, n nodes, one Sim driver per (node, technology).
type Cluster struct {
	Eng     *simnet.Engine
	Fabrics map[string]*nicsim.Fabric
	// Drivers[node][tech] is the driver for that node on that fabric.
	Drivers []map[string]*Sim
	Stats   *stats.Set
}

// NewCluster builds an n-node cluster over the given capability profiles.
// All nodes share one stats set (the experiments aggregate fleet-wide).
func NewCluster(n int, profiles ...caps.Caps) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("drivers: cluster needs at least 2 nodes, got %d", n)
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("drivers: cluster needs at least one profile")
	}
	cl := &Cluster{
		Eng:     simnet.NewEngine(),
		Fabrics: make(map[string]*nicsim.Fabric),
		Drivers: make([]map[string]*Sim, n),
		Stats:   &stats.Set{},
	}
	mem := memsim.DefaultModel()
	for _, p := range profiles {
		if _, dup := cl.Fabrics[p.Name]; dup {
			return nil, fmt.Errorf("drivers: duplicate profile %q in cluster", p.Name)
		}
		cl.Fabrics[p.Name] = nicsim.NewFabric(p.Name)
	}
	for node := 0; node < n; node++ {
		cl.Drivers[node] = make(map[string]*Sim, len(profiles))
		for _, p := range profiles {
			nic, err := nicsim.New(cl.Eng, cl.Fabrics[p.Name], packet.NodeID(node), p, mem, cl.Stats)
			if err != nil {
				return nil, err
			}
			cl.Drivers[node][p.Name] = NewSim(nic)
		}
	}
	return cl, nil
}

// Driver returns the driver of node on the named technology.
func (c *Cluster) Driver(node packet.NodeID, tech string) *Sim {
	return c.Drivers[node][tech]
}

// NodeDrivers returns all drivers of a node (one per technology), sorted by
// technology name so callers iterate deterministically.
func (c *Cluster) NodeDrivers(node packet.NodeID) []*Sim {
	out := make([]*Sim, 0, len(c.Drivers[node]))
	for _, name := range sortedKeys(c.Drivers[node]) {
		out = append(out, c.Drivers[node][name])
	}
	return out
}

func sortedKeys(m map[string]*Sim) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
