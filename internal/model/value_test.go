package model

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestValueIsBinary(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		v    Value
		want bool
	}{
		{"zero", Zero, true},
		{"one", One, true},
		{"bot", Bot, false},
		{"garbage", Value(7), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if got := tt.v.IsBinary(); got != tt.want {
				t.Errorf("IsBinary(%v) = %v, want %v", tt.v, got, tt.want)
			}
		})
	}
}

func TestValueValid(t *testing.T) {
	t.Parallel()
	for _, v := range []Value{Zero, One, Bot} {
		if !v.Valid() {
			t.Errorf("Valid(%v) = false, want true", v)
		}
	}
	for _, v := range []Value{Value(2), Value(-2), Value(100)} {
		if v.Valid() {
			t.Errorf("Valid(%v) = true, want false", v)
		}
	}
}

func TestValueOpposite(t *testing.T) {
	t.Parallel()
	if got := Zero.Opposite(); got != One {
		t.Errorf("Zero.Opposite() = %v, want One", got)
	}
	if got := One.Opposite(); got != Zero {
		t.Errorf("One.Opposite() = %v, want Zero", got)
	}
}

func TestValueOppositePanicsOnBot(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Bot.Opposite() did not panic")
		}
	}()
	_ = Bot.Opposite()
}

func TestValueString(t *testing.T) {
	t.Parallel()
	tests := []struct {
		v    Value
		want string
	}{
		{Zero, "0"},
		{One, "1"},
		{Bot, "⊥"},
		{Value(9), "Value(9)"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int8(tt.v), got, tt.want)
		}
	}
}

func TestBitToValue(t *testing.T) {
	t.Parallel()
	if got := BitToValue(0); got != Zero {
		t.Errorf("BitToValue(0) = %v, want 0", got)
	}
	if got := BitToValue(1); got != One {
		t.Errorf("BitToValue(1) = %v, want 1", got)
	}
	if got := BitToValue(42); got != Zero {
		t.Errorf("BitToValue(42) = %v, want 0 (parity)", got)
	}
	if got := BitToValue(43); got != One {
		t.Errorf("BitToValue(43) = %v, want 1 (parity)", got)
	}
}

func TestBitToValueAlwaysBinary(t *testing.T) {
	t.Parallel()
	f := func(b uint64) bool { return BitToValue(b).IsBinary() }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Opposite returns the other binary value. It panics if v is not binary;
// callers must only invoke it on validated protocol state.
func (v Value) Opposite() Value {
	switch v {
	case Zero:
		return One
	case One:
		return Zero
	}
	panic(fmt.Sprintf("model: Opposite of non-binary value %d", int8(v)))
}
