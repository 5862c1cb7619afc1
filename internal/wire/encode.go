package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// AppendPredictResponse appends the /predict answer to dst:
//
//	{"model":"m","version":3,"y":0.5}          when single (ys[0])
//	{"model":"m","version":3,"y_batch":[…]}    otherwise
//
// followed by a newline — byte for byte what json.Encoder writes for the
// same response, whose "y_batch" is omitted when empty. It refuses a
// NaN or infinite value, naming its row, before appending anything.
func AppendPredictResponse(dst []byte, model string, version int, ys []float64, single bool) ([]byte, error) {
	for i, y := range ys {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return dst, fmt.Errorf("wire: prediction for row %d is not finite (%v)", i, y)
		}
	}
	dst = append(dst, `{"model":`...)
	dst = appendString(dst, model)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, int64(version), 10)
	switch {
	case single:
		dst = append(dst, `,"y":`...)
		dst = appendFloat(dst, ys[0])
	case len(ys) > 0:
		dst = append(dst, `,"y_batch":[`...)
		for i, y := range ys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, y)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), nil
}

// appendString appends s as a JSON string. Registry names
// ([a-z0-9][a-z0-9._-]*) need no escaping and are copied raw; anything
// else goes through encoding/json, HTML escaping included, as the
// Encoder would write it.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends a finite f exactly as encoding/json formats a
// float64: the shortest round-trip digits, in 'f' form unless |f| is
// below 1e-6 or at least 1e21, with a two-digit negative exponent
// shortened (e-07 → e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
