package gen2

import (
	"fmt"
	"testing"
)

func TestRotationKeepsTwoGenerations(t *testing.T) {
	m := New[string, int](4)
	for i := 0; i < 10; i++ {
		m.Put(fmt.Sprint(i), i)
	}
	// 0-3 filled the first generation, 4-7 the second; 8 rotated the
	// first one out.
	if cur, prev := m.Len(); cur != 2 || prev != 4 {
		t.Fatalf("generations cur=%d prev=%d, want 2/4", cur, prev)
	}
	if _, ok := m.Peek("3"); ok {
		t.Fatal("entry survived two rotations")
	}
	for _, k := range []string{"4", "7", "8", "9"} {
		if v, ok := m.Peek(k); !ok || fmt.Sprint(v) != k {
			t.Fatalf("Peek(%s) = %v %v", k, v, ok)
		}
	}
}

func TestPeekDoesNotPromoteGetDoes(t *testing.T) {
	m := New[string, int](2)
	m.Put("a", 1)
	m.Put("b", 2)
	m.Put("c", 3) // a, b now previous
	m.Peek("a")
	if cur, _ := m.Len(); cur != 1 {
		t.Fatalf("Peek promoted: cur=%d, want 1", cur)
	}
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v %v", v, ok)
	}
	if cur, _ := m.Len(); cur != 2 {
		t.Fatalf("Get did not promote: cur=%d, want 2", cur)
	}
}

func TestDeleteForgetsBothGenerations(t *testing.T) {
	m := New[string, int](1)
	m.Put("a", 1)
	m.Put("b", 2)
	m.Put("a", 3) // a in both generations
	m.Delete("a")
	if _, ok := m.Peek("a"); ok {
		t.Fatal("deleted key still resolves")
	}
}

func TestInternReturnsCanonicalCopy(t *testing.T) {
	m := New[string, string](8)
	first := Intern(&m, []byte("campaign"))
	second := Intern(&m, []byte("campaign"))
	if first != "campaign" || first != second {
		t.Fatalf("intern = %q, %q", first, second)
	}
	if n := testing.AllocsPerRun(100, func() { Intern(&m, []byte("campaign")) }); n != 0 {
		t.Fatalf("interning a known string allocated %v times", n)
	}
	if Intern(&m, nil) != "" {
		t.Fatal("empty input must intern to the empty string")
	}
}
