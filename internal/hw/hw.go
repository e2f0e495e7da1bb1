// Package hw models the physical server the paper benchmarks on: a Dell
// rack server with one quad-core Intel Xeon X3220, 4 GB of memory, two
// hard disks and two 1 Gb Ethernet interfaces, "intended to represent a
// general-purpose rack server configuration, widely used in virtualized
// datacenters" (Sect. III.B).
//
// A Spec carries the per-subsystem capacities the hypervisor simulator
// shares among co-located VMs and the wall-plug power model the emulated
// power meter samples. Capacities are expressed in natural units per
// subsystem (CPU cores, MiB/s of memory bandwidth, MiB/s of disk
// bandwidth, Mb/s of network bandwidth); demand vectors use the same
// units, so utilization is demand/capacity per subsystem.
package hw

import (
	"errors"
	"fmt"
	"math"

	"pacevm/internal/subsys"
	"pacevm/internal/units"
)

// Spec describes one physical server model.
type Spec struct {
	// Name labels the hardware class in validation errors.
	Name string

	// Capacity is the per-subsystem capacity vector:
	// CPU in cores, MEM in MiB/s of memory bandwidth, DISK in MiB/s,
	// NET in Mb/s.
	Capacity subsys.Vector

	// RAM is total physical memory; RAMReserved is the slice held back
	// for the hypervisor and dom0. UsableRAM is the difference.
	RAM         units.MiB
	RAMReserved units.MiB

	// IdlePower is drawn whenever the server is powered on, regardless
	// of load. The paper assumes a fixed 125 W for an active server in
	// its datacenter simulations (Sect. IV.A).
	IdlePower units.Watts

	// DynamicPower is the additional power each subsystem draws at 100 %
	// utilization. Total dynamic draw is the sum over subsystems of
	// DynamicPower[s] * util[s]^PowerExponent[s].
	DynamicPower [subsys.Count]units.Watts

	// PowerExponent shapes each subsystem's power curve; 1 is linear,
	// >1 is convex (higher utilizations disproportionately expensive).
	PowerExponent [subsys.Count]float64

	// MaxVMs bounds how many VMs the hypervisor will admit at all. The
	// paper's base tests go up to 16 VMs per server.
	MaxVMs int
}

// X3220 returns the reproduction's default server spec, mirroring the
// paper's testbed. The dynamic power budget puts the server at ~270 W
// fully loaded over the 125 W idle floor, consistent with measured
// X3220-era 1U servers.
func X3220() Spec {
	return Spec{
		Name: "dell-x3220",
		Capacity: subsys.V(
			4,    // 4 cores
			5000, // MiB/s memory bandwidth (FSB-era)
			160,  // MiB/s across two HDDs
			2000, // Mb/s across two 1GbE NICs
		),
		RAM:         4096,
		RAMReserved: 512,
		IdlePower:   125,
		DynamicPower: [subsys.Count]units.Watts{
			subsys.CPU:  105,
			subsys.MEM:  24,
			subsys.DISK: 16,
			subsys.NET:  9,
		},
		PowerExponent: [subsys.Count]float64{
			subsys.CPU:  1.15,
			subsys.MEM:  1,
			subsys.DISK: 1,
			subsys.NET:  1,
		},
		MaxVMs: 16,
	}
}

// UsableRAM is the memory available to guests.
func (s Spec) UsableRAM() units.MiB { return s.RAM - s.RAMReserved }

// MaxPower is the wall power at 100 % utilization of every subsystem.
func (s Spec) MaxPower() units.Watts {
	p := s.IdlePower
	for _, d := range s.DynamicPower {
		p += d
	}
	return p
}

// Power returns wall power for a powered-on server at the given
// per-subsystem utilization (each component clamped into [0,1]).
func (s Spec) Power(util subsys.Vector) units.Watts {
	util = util.Clamp01()
	p := s.IdlePower
	for i := range subsys.All {
		exp := s.PowerExponent[i]
		if exp <= 0 {
			exp = 1
		}
		p += units.Watts(float64(s.DynamicPower[i]) * math.Pow(util[i], exp))
	}
	return p
}

// Utilization converts an aggregate demand vector into per-subsystem
// utilization fractions in [0,1] (demand beyond capacity saturates at 1).
func (s Spec) Utilization(demand subsys.Vector) subsys.Vector {
	return demand.Div(s.Capacity).Clamp01()
}

// Validate checks the spec for internal consistency.
func (s Spec) Validate() error {
	if !s.Capacity.NonNegative() || s.Capacity.IsZero() {
		return fmt.Errorf("hw: spec %q has invalid capacity %v", s.Name, s.Capacity)
	}
	for _, id := range subsys.All {
		if s.Capacity.Get(id) <= 0 {
			return fmt.Errorf("hw: spec %q has zero %v capacity", s.Name, id)
		}
	}
	if s.RAM <= 0 || s.RAMReserved < 0 || s.UsableRAM() <= 0 {
		return fmt.Errorf("hw: spec %q has invalid RAM %v (reserved %v)", s.Name, s.RAM, s.RAMReserved)
	}
	if s.IdlePower < 0 {
		return fmt.Errorf("hw: spec %q has negative idle power", s.Name)
	}
	for i, d := range s.DynamicPower {
		if d < 0 {
			return fmt.Errorf("hw: spec %q has negative dynamic power for %v", s.Name, subsys.All[i])
		}
	}
	if s.MaxVMs <= 0 {
		return errors.New("hw: MaxVMs must be positive")
	}
	return nil
}
