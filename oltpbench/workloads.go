package main

import (
	"fmt"

	"dora/internal/catalog"
	"dora/internal/sm"
	"dora/internal/storage"
	"dora/internal/tuple"
	"dora/internal/workload"
	"dora/internal/workload/tatp"
	"dora/internal/workload/tpcb"
	"dora/internal/workload/tpcc"
)

// database is one loaded workload database: the mix the sessions run
// against it and how its consistency is checked after the run.
type database interface {
	domains() map[string][2]int64
	mix() workload.Mix
	tables() []*catalog.Table
	// baseline records the state check compares against; it runs once,
	// after set-up and outside its timing.
	baseline() error
	// check verifies the quiesced database, given every transaction the
	// engine committed on it (warm-up and drain included).
	check(commits int64) error
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name   string
	frames int // buffer-pool frames
	load   func(s *sm.SM) (database, error)
}

var workloadDefs = []*workloadDef{
	{name: "tatp-ro", frames: 1 << 14, load: loadTATP},
	{name: "tpcb", frames: 1024, load: loadTPCB},
	{name: "tpcc", frames: 1 << 14, load: loadTPCC},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloadDefs {
		if w.name == name {
			return w
		}
	}
	return nil
}

// heapPages sums the heap pages of db's tables.
func heapPages(db database) int {
	n := 0
	for _, t := range db.tables() {
		n += len(t.Heap.Pages())
	}
	return n
}

// scanRows calls fn with every decoded record of t.
func scanRows(t *catalog.Table, fn func(tuple.Record)) error {
	var derr error
	err := t.Heap.Scan(func(_ storage.RID, b []byte) bool {
		rec, err := tuple.Decode(b)
		if err != nil {
			derr = fmt.Errorf("%s: %w", t.Name, err)
			return false
		}
		fn(rec)
		return true
	})
	if err != nil {
		return err
	}
	return derr
}

func countRows(t *catalog.Table) (int64, error) {
	var n int64
	err := t.Heap.Scan(func(storage.RID, []byte) bool { n++; return true })
	return n, err
}

// --- tatp-ro: TATP read-only mix over 100k subscribers -----------------

const tatpSubscribers = 100000

type tatpDB struct {
	*tatp.DB
	rows []int64
}

func loadTATP(s *sm.SM) (database, error) {
	db, err := tatp.Load(s, tatpSubscribers)
	if err != nil {
		return nil, err
	}
	return &tatpDB{DB: db}, nil
}

func (d *tatpDB) domains() map[string][2]int64 { return d.Domains() }

func (d *tatpDB) mix() workload.Mix { return d.ReadOnlyMix(tatp.MixOptions{}) }

func (d *tatpDB) tables() []*catalog.Table {
	return []*catalog.Table{d.Subscriber, d.AccessInfo, d.SpecialFac, d.CallForward}
}

func (d *tatpDB) baseline() error {
	d.rows = d.rows[:0]
	for _, t := range d.tables() {
		n, err := countRows(t)
		if err != nil {
			return err
		}
		d.rows = append(d.rows, n)
	}
	return nil
}

// check: a read-only mix leaves every table's row count unchanged.
func (d *tatpDB) check(int64) error {
	for i, t := range d.tables() {
		n, err := countRows(t)
		if err != nil {
			return err
		}
		if n != d.rows[i] {
			return fmt.Errorf("tatp-ro: %s has %d rows, loaded %d", t.Name, n, d.rows[i])
		}
	}
	return nil
}

// --- tpcb: AccountUpdate, 8 branches x 100k accounts --------------------

const (
	tpcbBranches = 8
	tpcbAccounts = 100000
)

type tpcbDB struct {
	*tpcb.DB
	history int64
}

func loadTPCB(s *sm.SM) (database, error) {
	db, err := tpcb.Load(s, tpcbBranches, tpcbAccounts)
	if err != nil {
		return nil, err
	}
	return &tpcbDB{DB: db}, nil
}

func (d *tpcbDB) domains() map[string][2]int64 { return d.Domains() }

func (d *tpcbDB) mix() workload.Mix { return d.NewMix(nil) }

func (d *tpcbDB) tables() []*catalog.Table {
	return []*catalog.Table{d.Branch, d.Teller, d.Account, d.History}
}

func (d *tpcbDB) baseline() error {
	n, err := countRows(d.History)
	d.history = n
	return err
}

// check: every committed delta was applied once to its branch, teller and
// account and recorded once in history, so the four sums agree, and
// history grew by exactly one row per commit.
func (d *tpcbDB) check(commits int64) error {
	sum := func(t *catalog.Table, field int) (s, rows int64, err error) {
		err = scanRows(t, func(r tuple.Record) { s += r[field].Int; rows++ })
		return s, rows, err
	}
	b, _, err := sum(d.Branch, 1)
	if err != nil {
		return err
	}
	t, _, err := sum(d.Teller, 2)
	if err != nil {
		return err
	}
	a, _, err := sum(d.Account, 2)
	if err != nil {
		return err
	}
	h, hrows, err := sum(d.History, 4)
	if err != nil {
		return err
	}
	if b != t || t != a || a != h {
		return fmt.Errorf("tpcb: balances disagree: branch %d teller %d account %d history %d", b, t, a, h)
	}
	if hrows != d.history+commits {
		return fmt.Errorf("tpcb: history has %d rows, want %d loaded + %d commits", hrows, d.history, commits)
	}
	return nil
}

// --- tpcc: five-transaction mix, 4 warehouses ---------------------------

const tpccWarehouses = 4

type tpccDB struct{ *tpcc.DB }

func loadTPCC(s *sm.SM) (database, error) {
	db, err := tpcc.Load(s, tpcc.DefaultScale(tpccWarehouses))
	if err != nil {
		return nil, err
	}
	return &tpccDB{DB: db}, nil
}

func (d *tpccDB) domains() map[string][2]int64 { return d.Domains() }

func (d *tpccDB) mix() workload.Mix { return d.NewMix(tpcc.MixOptions{}) }

func (d *tpccDB) tables() []*catalog.Table {
	return []*catalog.Table{d.Warehouse, d.District, d.Customer, d.History,
		d.NewOrder, d.Orders, d.OrderLine, d.Item, d.Stock}
}

func (d *tpccDB) baseline() error { return nil }

// check applies TPC-C consistency conditions 1 and 2: W_YTD = sum(D_YTD)
// per warehouse, and D_NEXT_O_ID - 1 = max(O_ID) per district.
func (d *tpccDB) check(int64) error {
	wYTD := map[int64]int64{}
	dYTD := map[int64]int64{}
	nextO := map[int64]int64{}
	maxO := map[int64]int64{}
	if err := scanRows(d.Warehouse, func(r tuple.Record) { wYTD[r[0].Int] = r[1].Int }); err != nil {
		return err
	}
	if err := scanRows(d.District, func(r tuple.Record) {
		dYTD[r[0].Int] += r[2].Int
		nextO[tpcc.DKey(r[0].Int, r[1].Int)] = r[3].Int
	}); err != nil {
		return err
	}
	if err := scanRows(d.Orders, func(r tuple.Record) {
		k := tpcc.DKey(r[0].Int, r[1].Int)
		if r[2].Int > maxO[k] {
			maxO[k] = r[2].Int
		}
	}); err != nil {
		return err
	}
	if len(wYTD) != tpccWarehouses {
		return fmt.Errorf("tpcc: %d warehouses, want %d", len(wYTD), tpccWarehouses)
	}
	for w, y := range wYTD {
		if y != dYTD[w] {
			return fmt.Errorf("tpcc: warehouse %d W_YTD %d != sum(D_YTD) %d", w, y, dYTD[w])
		}
	}
	for k, n := range nextO {
		if n-1 != maxO[k] {
			return fmt.Errorf("tpcc: district %d D_NEXT_O_ID-1 = %d, max O_ID = %d", k, n-1, maxO[k])
		}
	}
	return nil
}
