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
	"unicode/utf8"

	"pacevm/internal/workload"
)

// appendJrec appends r as json.Marshal(r) writes it. The embedded
// placement's fields sit between key and shard, minus the two the
// record shadows (key and shard); a nil placement writes none of them.
func appendJrec(b []byte, r *jrec) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(r.Seq), 10)
	b = append(b, `,"kind":`...)
	b = appendString(b, r.Kind)
	if r.Key != "" {
		b = append(b, `,"key":`...)
		b = appendString(b, r.Key)
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
			b = appendString(b, e.Key)
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
			b = appendString(b, pl.Key)
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
	b = appendString(b, workload.Class(pl.Class).String())
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
	b = appendString(b, q.Key)
	b = appendOmitInt(b, `,"job":`, q.Job)
	b = append(b, `,"class":`...)
	b = appendString(b, workload.Class(q.Class).String())
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

// appendOmitFloat writes a float64 field as encoding/json does: omitted
// at ±0, shortest 'f' form, 'e' form below 1e-6 or from 1e21 on with a
// two-digit negative exponent trimmed to one, and an error for NaN and
// ±Inf, which JSON cannot spell.
func appendOmitFloat(b []byte, field string, f float64) ([]byte, error) {
	if f == 0 {
		return b, nil
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	b = append(b, field...)
	format := byte('f')
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as json.Marshal does: ", \ and control
// characters escaped (\b \f \n \r \t by name), <, > and & as \u003c
// \u003e \u0026, U+2028 and U+2029 escaped, and each byte of invalid
// UTF-8 replaced by \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
