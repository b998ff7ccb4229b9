package codec

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzCodecDifferential cross-checks the two codecs on arbitrary
// inputs: any JSON document that decodes into a Request or Response
// must survive a binary encode/decode round trip bit-identically to a
// JSON round trip of the same value. The comparison baseline is the
// JSON-normalized value (a first JSON round trip), because
// encoding/json itself is not idempotent on invalid UTF-8 — it
// replaces bad sequences on encode — and the parity contract is
// "binary reproduces what the JSON wire would have delivered".
func FuzzCodecDifferential(f *testing.F) {
	for _, r := range sampleRequests() {
		b, err := json.Marshal(&r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, r := range traceSampleRequests() {
		b, err := json.Marshal(&r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, r := range sampleResponses() {
		b, err := json.Marshal(&r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if json.Unmarshal(data, &req) == nil {
			norm := jsonRoundTripReq(t, req)
			enc, err := AppendRequest(nil, &norm)
			if err != nil {
				t.Fatalf("binary encode rejected a JSON-decodable request: %v", err)
			}
			var back Request
			if err := DecodeRequest(enc, &back); err != nil {
				t.Fatalf("binary decode rejected its own encoder's output: %v", err)
			}
			if want := jsonRoundTripReq(t, norm); !reflect.DeepEqual(back, want) {
				t.Fatalf("request diverged across codecs:\nbinary: %+v\njson:   %+v", back, want)
			}
		}
		var resp Response
		if json.Unmarshal(data, &resp) == nil {
			norm := jsonRoundTripResp(t, resp)
			enc, err := AppendResponse(nil, &norm)
			if err != nil {
				t.Fatalf("binary encode rejected a JSON-decodable response: %v", err)
			}
			var back Response
			if err := DecodeResponse(enc, &back); err != nil {
				t.Fatalf("binary decode rejected its own encoder's output: %v", err)
			}
			if want := jsonRoundTripResp(t, norm); !reflect.DeepEqual(back, want) {
				t.Fatalf("response diverged across codecs:\nbinary: %+v\njson:   %+v", back, want)
			}
			// A preset value buffer, too short or with room, changes
			// where the value lands, never what is decoded.
			for _, size := range []int{len(back.Value) - 1, len(back.Value) + 1} {
				into := Response{Value: make([]byte, max(size, 0))}
				if err := DecodeResponse(enc, &into); err != nil {
					t.Fatalf("decode into a %d-byte value buffer: %v", size, err)
				}
				if !reflect.DeepEqual(into, back) {
					t.Fatalf("decode into a %d-byte value buffer diverged:\ninto:  %+v\nfresh: %+v", size, into, back)
				}
			}
		}
	})
}

// FuzzBinaryDecode throws raw bytes at the binary decoders: they must
// never panic, never allocate past the input's implied bounds, and any
// value they do accept must re-encode and re-decode to the same value
// (decode is a retraction of encode on its image).
func FuzzBinaryDecode(f *testing.F) {
	for _, r := range sampleRequests() {
		enc, err := AppendRequest(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	for _, r := range traceSampleRequests() {
		enc, err := AppendRequest(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	for _, r := range sampleResponses() {
		enc, err := AppendResponse(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if DecodeRequest(data, &req) == nil {
			enc, err := AppendRequest(nil, &req)
			if err != nil {
				t.Fatalf("re-encode failed for accepted request: %v", err)
			}
			var back Request
			if err := DecodeRequest(enc, &back); err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(req, back) {
				t.Fatalf("request round trip unstable:\nfirst:  %+v\nsecond: %+v", req, back)
			}
		}
		var resp Response
		if DecodeResponse(data, &resp) == nil {
			enc, err := AppendResponse(nil, &resp)
			if err != nil {
				t.Fatalf("re-encode failed for accepted response: %v", err)
			}
			var back Response
			if err := DecodeResponse(enc, &back); err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(resp, back) {
				t.Fatalf("response round trip unstable:\nfirst:  %+v\nsecond: %+v", resp, back)
			}
		}
	})
}
