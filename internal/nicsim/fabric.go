package nicsim

import (
	"fmt"

	"newmad/internal/packet"
)

// Fabric is one interconnect network: the set of NICs of a single
// technology, one per participating node, with any-to-any reachability
// (high-speed cluster interconnects are full-bisection at the scales the
// paper considers, so contention is modeled at the NICs, not the switch).
//
// A node participating in several fabrics (multi-rail, possibly of
// different technologies) simply owns one NIC on each; internal/core
// balances between them.
type Fabric struct {
	name string
	nics map[packet.NodeID]*NIC
}

// NewFabric creates an empty fabric.
func NewFabric(name string) *Fabric {
	return &Fabric{name: name, nics: make(map[packet.NodeID]*NIC)}
}

// Name returns the fabric label.
func (f *Fabric) Name() string { return f.name }

func (f *Fabric) attach(n *NIC) error {
	if _, dup := f.nics[n.node]; dup {
		return fmt.Errorf("nicsim: node %d already attached to fabric %s", n.node, f.name)
	}
	f.nics[n.node] = n
	return nil
}

// arrive routes a frame that has finished propagation to its destination
// NIC's receive engine.
func (f *Fabric) arrive(src packet.NodeID, fr *packet.Frame) {
	dst, ok := f.nics[fr.Dst]
	if !ok {
		panic(fmt.Sprintf("nicsim: frame for unattached node %d on fabric %s", fr.Dst, f.name))
	}
	dst.receive(src, fr)
}
