package serve

// Hand-written JSON appenders for the durable formats: journal records
// and snapshot payloads. They write exactly the bytes json.Marshal
// writes for the same values — field order, omitempty, HTML-escaped
// strings, float formatting — so files stay byte-identical to the
// reflective encoder's, but they append into a caller-owned buffer and
// allocate nothing once it has grown. FuzzJournalEncode pins the
// equivalence; readJournal and readSnapshotFile decode with
// encoding/json.

import (
	"fmt"
	"math"
	"strconv"

	"pacevm/internal/obs"
	"pacevm/internal/workload"
)

// appendJrec appends r as json.Marshal(r) writes it. The embedded
// placement's fields sit between key and shard, minus the two the
// record shadows (key and shard); a nil placement writes none of them.
func appendJrec(b []byte, r *jrec) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(r.Seq), 10)
	b = append(b, `,"kind":`...)
	b = obs.AppendJSONString(b, r.Kind)
	if r.Key != "" {
		b = append(b, `,"key":`...)
		b = obs.AppendJSONString(b, r.Key)
	}
	if pl := r.placement; pl != nil {
		var err error
		if b, err = appendPlacementBody(b, pl, false); err != nil {
			return b, err
		}
	}
	b = appendOmitInt(b, `,"shard":`, r.Shard)
	b = appendOmitInt(b, `,"server":`, r.Server)
	b = appendOmitInt(b, `,"slot":`, r.Slot)
	b = appendOmitInt(b, `,"vm_id":`, r.VMID)
	if len(r.Evict) > 0 {
		b = append(b, `,"evict":[`...)
		for i := range r.Evict {
			e := &r.Evict[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"key":`...)
			b = obs.AppendJSONString(b, e.Key)
			b = append(b, `,"slot":`...)
			b = strconv.AppendInt(b, int64(e.Slot), 10)
			b = append(b, `,"vm_id":`...)
			b = strconv.AppendInt(b, int64(e.VMID), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendSnapPayload appends p as json.Marshal(p) writes it.
func appendSnapPayload(b []byte, p *snapPayload) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(p.Seq), 10)
	b = append(b, `,"next_vm_id":`...)
	b = strconv.AppendInt(b, int64(p.NextVMID), 10)
	b = append(b, `,"servers":`...)
	b = strconv.AppendInt(b, int64(p.Servers), 10)
	b = append(b, `,"shards":`...)
	b = strconv.AppendInt(b, int64(p.Shards), 10)
	b = append(b, `,"max_vms":`...)
	b = strconv.AppendInt(b, int64(p.MaxVMs), 10)
	if len(p.Down) > 0 {
		b = append(b, `,"down":`...)
		b = appendInts(b, p.Down)
	}
	b = append(b, `,"placements":`...)
	if p.Placements == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, pl := range p.Placements {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"key":`...)
			b = obs.AppendJSONString(b, pl.Key)
			var err error
			if b, err = appendPlacementBody(b, pl, true); err != nil {
				return b, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(p.Queue) > 0 {
		b = append(b, `,"queue":[`...)
		for i := range p.Queue {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendQueued(b, &p.Queue[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendPlacementBody appends pl's fields after its key: the shared
// tail of a snapshot placement and a place journal record. withShard
// writes the shard, which a journal record shadows and omits.
func appendPlacementBody(b []byte, pl *placement, withShard bool) ([]byte, error) {
	b = appendOmitInt(b, `,"job":`, pl.Job)
	b = append(b, `,"class":`...)
	b = obs.AppendJSONString(b, workload.Class(pl.Class).String())
	var err error
	if b, err = appendOmitFloat(b, `,"nominal_s":`, pl.NominalS); err != nil {
		return b, err
	}
	if b, err = appendOmitFloat(b, `,"max_s":`, pl.MaxS); err != nil {
		return b, err
	}
	if withShard {
		b = append(b, `,"shard":`...)
		b = strconv.AppendInt(b, int64(pl.Shard), 10)
	}
	b = append(b, `,"servers":`...)
	b = appendInts(b, pl.Servers)
	b = append(b, `,"vm_ids":`...)
	b = appendInts(b, pl.VMIDs)
	b = appendOmitTrue(b, `,"released":true`, pl.Released)
	b = appendOmitTrue(b, `,"degraded":true`, pl.Degraded)
	return appendOmitTrue(b, `,"relaxed":true`, pl.Relaxed), nil
}

func appendQueued(b []byte, q *queued) ([]byte, error) {
	b = append(b, `{"key":`...)
	b = obs.AppendJSONString(b, q.Key)
	b = appendOmitInt(b, `,"job":`, q.Job)
	b = append(b, `,"class":`...)
	b = obs.AppendJSONString(b, workload.Class(q.Class).String())
	b = append(b, `,"vms":`...)
	b = strconv.AppendInt(b, int64(q.VMs), 10)
	var err error
	if b, err = appendOmitFloat(b, `,"nominal_s":`, q.NominalS); err != nil {
		return b, err
	}
	if b, err = appendOmitFloat(b, `,"max_s":`, q.MaxS); err != nil {
		return b, err
	}
	b = appendOmitTrue(b, `,"requeue":true`, q.Requeue)
	b = appendOmitInt(b, `,"shard":`, q.Shard)
	b = appendOmitInt(b, `,"slot":`, q.Slot)
	b = appendOmitInt(b, `,"vm_id":`, q.VMID)
	return append(b, '}'), nil
}

// appendInts writes a nil slice as null and an empty one as [], as
// encoding/json does.
func appendInts(b []byte, v []int) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

func appendOmitInt(b []byte, field string, v int) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, field...), int64(v), 10)
}

func appendOmitTrue(b []byte, field string, v bool) []byte {
	if !v {
		return b
	}
	return append(b, field...)
}

// appendOmitFloat writes a float64 field as encoding/json does
// (obs.AppendJSONFloat): omitted at ±0, and an error for NaN and ±Inf,
// which JSON cannot spell.
func appendOmitFloat(b []byte, field string, f float64) ([]byte, error) {
	if f == 0 {
		return b, nil
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	return obs.AppendJSONFloat(append(b, field...), f), nil
}
