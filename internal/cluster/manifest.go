package cluster

import (
	"fmt"

	"newmad/internal/caps"
	"newmad/internal/chaos"
	"newmad/internal/simnet"
	"newmad/internal/testnet"
)

// Manifest-driven boot: the same declarative topology files that drive the
// 1000-node emulated testnets (internal/testnet) also boot small real-socket
// meshes, so a scenario debugged at emulation scale replays over genuine TCP
// without translation. The socket tier adds constraints the emulator does
// not have — every node must run the same capability profile (the mesh
// builder wires one listener set per rail profile, not per role) — so
// OptionsFromManifest rejects heterogeneous manifests rather than silently
// flattening them.

// OptionsFromManifest derives wall-clock mesh options from a testnet
// manifest. The caller may still adjust observers (OnDeliver, OnPeerDown,
// Raw) before booting; the topology, tuning and chaos fields come from the
// manifest.
func OptionsFromManifest(m *testnet.Manifest) (Options, error) {
	if err := m.Validate(); err != nil {
		return Options{}, err
	}
	profile := m.Roles[0].Profile
	channels := m.Roles[0].Channels
	for _, r := range m.Roles[1:] {
		if r.Profile != profile || r.Channels != channels {
			return Options{}, fmt.Errorf("cluster: manifest %q mixes profiles (%q vs %q); socket clusters need one profile on every node — run heterogeneous topologies under internal/testnet", m.Name, profile, r.Profile)
		}
	}
	base, _ := caps.Lookup(profile) // manifest validation resolved it
	if channels > 0 {
		base.Channels = channels
	}

	o := Options{
		Nodes:        m.TotalNodes(),
		Bundle:       m.Engine.Bundle,
		Lookahead:    m.Engine.Lookahead,
		NagleDelay:   simnet.Duration(m.Engine.NagleUS) * simnet.Microsecond,
		RdvThreshold: m.Engine.RdvThreshold,
		Quotas:       m.Quotas(),
	}
	if m.Rails > 1 {
		o.Rails = caps.RailProfiles(base, m.Rails)
	} else {
		o.Caps = base
	}
	if rules := m.FaultRules(); len(rules) > 0 {
		o.Chaos = &ChaosPlan{Seed: m.Seed, Rules: rules}
	}
	return o, nil
}

// FromManifest boots a real-socket mesh from a testnet manifest.
func FromManifest(m *testnet.Manifest) (*Cluster, error) {
	o, err := OptionsFromManifest(m)
	if err != nil {
		return nil, err
	}
	return New(o)
}

// ScriptFromManifest resolves the manifest's group-addressed chaos clauses
// into the concrete script RunScript executes, using the same keyed
// derivation as the emulated testnet — so the socket tier replays the very
// schedule the emulation ran for that seed.
func ScriptFromManifest(m *testnet.Manifest) (chaos.Script, error) {
	return m.GroupChaos().Resolve(m.Groups(), m.Rails, simnet.NewRNG(m.Seed).ForkString("chaos"))
}
