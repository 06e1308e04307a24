package stream

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzDataMsgJSON pins the per-unit codec to encoding/json: the appender
// writes json.Marshal's bytes for any unit, and the parser agrees with
// json.Unmarshal on any input, canonical or not.
func FuzzDataMsgJSON(f *testing.F) {
	f.Add("req-1", 0, 2, int64(17), int64(1500*time.Millisecond), 1250, []byte(`{"req":"r","sub":1,"stage":2,"seq":3,"created":4,"size":5}`))
	f.Add("a<b>&\"\\\x01é\xff", -1, 1<<40, int64(-1<<63), int64(1<<62), -7, []byte(`{"req":"r","sub":01,"stage":2,"seq":3,"created":4,"size":5}`))
	f.Add("", 0, 0, int64(0), int64(0), 0, []byte(`{"req":"r","sub":1,"stage":2,"seq":3,"created":4,"size":5} `))
	f.Add("x", 1, 2, int64(3), int64(4), 5, []byte(`{"req":"r","sub":-0,"stage":999999999999999999,"seq":3,"created":4,"size":5}`))
	f.Fuzz(func(t *testing.T, req string, sub, stage int, seq, created int64, size int, raw []byte) {
		m := dataMsg{Req: req, Substream: sub, Stage: stage, Seq: seq, Created: time.Duration(created), Size: size}
		want, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		got := marshalDataMsg(&m)
		if !bytes.Equal(got, want) {
			t.Fatalf("marshalDataMsg:\n got %s\nwant %s", got, want)
		}
		for _, in := range [][]byte{got, raw} {
			var viaJSON, viaParse dataMsg
			errJSON := json.Unmarshal(in, &viaJSON)
			errParse := parseDataMsg(in, &viaParse)
			if (errJSON == nil) != (errParse == nil) {
				t.Fatalf("%q: json.Unmarshal err %v, parseDataMsg err %v", in, errJSON, errParse)
			}
			if errJSON == nil && viaJSON != viaParse {
				t.Fatalf("%q: json.Unmarshal %+v, parseDataMsg %+v", in, viaJSON, viaParse)
			}
		}
	})
}

// FuzzDecodeBatchUnits feeds arbitrary bytes to the batch decoder, which
// reads socket input: it must never panic, and a batch it accepts must
// re-encode to a prefix of the input (trailing bytes are ignored).
func FuzzDecodeBatchUnits(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 'r', '1'})
	f.Add(appendBatchUnits(nil, []pendingUnit{{msg: dataMsg{Req: "r", Substream: 1, Stage: 2, Seq: 3, Created: 4, Size: 5}}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		units := decodeBatchUnits(b, nil)
		if units == nil {
			return
		}
		pending := make([]pendingUnit, len(units))
		for i := range units {
			pending[i].msg = units[i]
		}
		if back := appendBatchUnits(nil, pending); !bytes.HasPrefix(b, back) {
			t.Fatalf("re-encoded %x, input %x", back, b)
		}
	})
}
