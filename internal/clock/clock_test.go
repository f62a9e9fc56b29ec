package clock

import (
	"sync"
	"testing"
	"time"
)

func TestClockMonotonic(t *testing.T) {
	c := NewSim(time.Unix(1000, 0))
	c.Advance(-time.Hour)
	if !c.Now().Equal(time.Unix(1000, 0)) {
		t.Fatal("negative advance moved the clock")
	}
	c.Set(time.Unix(500, 0))
	if !c.Now().Equal(time.Unix(1000, 0)) {
		t.Fatal("Set moved the clock backwards")
	}
	c.Set(time.Unix(2000, 0))
	if !c.Now().Equal(time.Unix(2000, 0)) {
		t.Fatal("Set failed to move the clock forwards")
	}
}

func TestSimAdvanceReturnsNewTime(t *testing.T) {
	c := NewSim(time.Unix(1000, 0))
	if got := c.Advance(time.Minute); !got.Equal(time.Unix(1060, 0)) {
		t.Fatalf("Advance = %v, want %v", got, time.Unix(1060, 0))
	}
	if got := c.Advance(-time.Minute); !got.Equal(time.Unix(1060, 0)) {
		t.Fatalf("negative Advance = %v, want the unchanged %v", got, time.Unix(1060, 0))
	}
}

func TestSimSleepAdvances(t *testing.T) {
	c := NewSim(time.Unix(1000, 0))
	c.Sleep(90 * time.Second)
	if !c.Now().Equal(time.Unix(1090, 0)) {
		t.Fatalf("after Sleep(90s) Now = %v", c.Now())
	}
	c.Sleep(-time.Second)
	if !c.Now().Equal(time.Unix(1090, 0)) {
		t.Fatal("negative Sleep moved the clock")
	}
}

// TestSimConcurrentUse is meaningful under -race: readers and writers
// share one Sim the way request goroutines and the driver loop do.
func TestSimConcurrentUse(t *testing.T) {
	c := NewSim(time.Unix(0, 0))
	const writers, steps = 4, 500
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < steps; j++ {
				c.Advance(time.Second)
			}
		}()
		go func() {
			defer wg.Done()
			prev := c.Now()
			for j := 0; j < steps; j++ {
				now := c.Now()
				if now.Before(prev) {
					t.Errorf("Now went backwards: %v after %v", now, prev)
					return
				}
				prev = now
			}
		}()
	}
	wg.Wait()
	if want := time.Unix(writers*steps, 0); !c.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", c.Now(), want)
	}
}

func TestReal(t *testing.T) {
	var c Clock = Real{}
	before := time.Now()
	c.Sleep(time.Millisecond)
	got := c.Now()
	if got.Sub(before) < time.Millisecond || got.After(before.Add(time.Minute)) {
		t.Fatalf("Real.Now after a 1ms Sleep = %v, started %v", got, before)
	}
}
