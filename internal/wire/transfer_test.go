package wire

import (
	"testing"

	"bluedove/internal/core"
)

func TestTransferRangeRoundtrip(t *testing.T) {
	b := &TransferRangeBody{
		TransferID:   TransferRangeID(7, 12, 1, 450, 600),
		Dim:          1,
		Low:          450,
		High:         600,
		Subs:         []*core.Subscription{sampleSub(), sampleSub()},
		DeliverAddrs: []string{"a", "b"},
	}
	got, err := DecodeTransferRange(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.TransferID != b.TransferID || got.Dim != 1 || got.Low != 450 || got.High != 600 {
		t.Fatalf("%+v", got)
	}
	if len(got.Subs) != 2 || got.DeliverAddrs[1] != "b" {
		t.Fatalf("%+v", got)
	}
	// Missing addrs pad to empty strings, like TransferBody.
	b2 := &TransferRangeBody{Dim: 0, Low: 0, High: 1, Subs: []*core.Subscription{sampleSub()}}
	got2, err := DecodeTransferRange(b2.Encode())
	if err != nil || got2.DeliverAddrs[0] != "" {
		t.Fatalf("%+v %v", got2, err)
	}
}

func TestTransferRangeID(t *testing.T) {
	a := TransferRangeID(3, 9, 0, 100, 200)
	if a != TransferRangeID(3, 9, 0, 100, 200) {
		t.Error("ID not deterministic")
	}
	// Every input dimension must perturb the key.
	for _, other := range []uint64{
		TransferRangeID(4, 9, 0, 100, 200),
		TransferRangeID(3, 10, 0, 100, 200),
		TransferRangeID(3, 9, 1, 100, 200),
		TransferRangeID(3, 9, 0, 101, 200),
		TransferRangeID(3, 9, 0, 100, 201),
	} {
		if other == a {
			t.Error("collision on single-field change")
		}
	}
}

func FuzzDecodeTransferRange(f *testing.F) {
	f.Add((&TransferRangeBody{
		TransferID: TransferRangeID(7, 12, 1, 450, 600),
		Dim:        1, Low: 450, High: 600,
		Subs:         []*core.Subscription{sampleSub()},
		DeliverAddrs: []string{"addr"},
	}).Encode())
	f.Add((&TransferRangeBody{Dim: 0, Low: 0, High: 1}).Encode())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeTransferRange(data)
		if err != nil {
			return
		}
		if len(b.Subs) != len(b.DeliverAddrs) {
			t.Fatal("subs/addrs misaligned without error")
		}
		for _, s := range b.Subs {
			if s == nil {
				t.Fatal("nil subscription without error")
			}
		}
	})
}
