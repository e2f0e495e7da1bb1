// Package subsys models the four server subsystems the paper profiles —
// CPU, memory, disk (storage) and the network interface — and the
// demand/utilization vectors defined over them.
//
// The paper's central departure from prior consolidation work is that a
// VM's resource requirement is a *vector* over these four dimensions, not
// a single CPU-utilization scalar (Sect. I, Sect. III.A). Every layer of
// PACE-VM (benchmark phases, hypervisor contention, profiling, the model
// database keys) is expressed in terms of subsys.Vector.
package subsys

import (
	"fmt"
	"math"
	"strings"
)

// ID identifies one server subsystem.
type ID int

// The four subsystems, in the paper's canonical order.
const (
	CPU ID = iota
	MEM
	DISK
	NET
	count // number of subsystems
)

// Count is the number of modelled subsystems.
const Count = int(count)

// All lists the subsystems in canonical order.
var All = [Count]ID{CPU, MEM, DISK, NET}

func (id ID) String() string {
	switch id {
	case CPU:
		return "cpu"
	case MEM:
		return "mem"
	case DISK:
		return "disk"
	case NET:
		return "net"
	default:
		return fmt.Sprintf("subsys(%d)", int(id))
	}
}

// Valid reports whether id names one of the four modelled subsystems.
func (id ID) Valid() bool { return id >= 0 && id < count }

// Vector is a quantity per subsystem: a demand, a utilization, or a
// capacity, depending on context. The zero value is the zero vector.
type Vector [Count]float64

// V constructs a Vector from per-subsystem values in canonical order.
func V(cpu, mem, disk, net float64) Vector { return Vector{cpu, mem, disk, net} }

// Get returns the component for id. It panics on an invalid id, which
// always indicates a programming error rather than bad input.
func (v Vector) Get(id ID) float64 {
	if !id.Valid() {
		panic(fmt.Sprintf("subsys: invalid id %d", int(id)))
	}
	return v[id]
}

// Add returns v + w componentwise.
func (v Vector) Add(w Vector) Vector {
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Scale returns v scaled by k.
func (v Vector) Scale(k float64) Vector {
	for i := range v {
		v[i] *= k
	}
	return v
}

// Div returns the componentwise ratio v/w. Components where w is zero
// yield +Inf if v is positive, 0 if v is zero (a zero demand on a zero
// capacity is vacuously satisfiable).
func (v Vector) Div(w Vector) Vector {
	var out Vector
	for i := range v {
		switch {
		case w[i] != 0:
			out[i] = v[i] / w[i]
		case v[i] == 0:
			out[i] = 0
		default:
			out[i] = math.Inf(1)
		}
	}
	return out
}

// IsZero reports whether all components are exactly zero.
func (v Vector) IsZero() bool { return v == Vector{} }

// NonNegative reports whether no component is negative (NaN components
// count as negative: they are never valid demands).
func (v Vector) NonNegative() bool {
	for _, x := range v {
		if !(x >= 0) {
			return false
		}
	}
	return true
}

// Clamp01 clamps every component into [0,1]; used when converting demand
// vectors into utilization fractions.
func (v Vector) Clamp01() Vector {
	for i := range v {
		if v[i] < 0 {
			v[i] = 0
		} else if v[i] > 1 {
			v[i] = 1
		}
	}
	return v
}

func (v Vector) String() string {
	parts := make([]string, Count)
	for i, id := range All {
		parts[i] = fmt.Sprintf("%s=%.3f", id, v[i])
	}
	return "{" + strings.Join(parts, " ") + "}"
}
