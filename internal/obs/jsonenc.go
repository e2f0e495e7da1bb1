package obs

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendJSONFloat appends a finite float64 exactly as encoding/json
// writes it: shortest round-trip form, fixed notation inside
// [1e-6, 1e21), and exponent notation outside it with a two-digit
// negative exponent trimmed to one. NaN and ±Inf have no JSON spelling;
// callers decide what to write for them.
func AppendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// jsonHex is the lowercase alphabet \u00xx escapes use.
const jsonHex = "0123456789abcdef"

// AppendJSONString appends s quoted exactly as encoding/json writes it
// with HTML escaping on (json.Marshal and the json.Encoder default):
// ", \ and control bytes escaped (\b \f \n \r \t by name), <, > and &
// as \u003c \u003e \u0026, U+2028 and U+2029 escaped, and each byte of
// invalid UTF-8 replaced by \ufffd.
func AppendJSONString(b []byte, s string) []byte {
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
				b = append(b, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
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
			b = append(b, '\\', 'u', '2', '0', '2', jsonHex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
