package sqlparse

import "testing"

// TestTokenBoundCoversLex checks that the pre-sizing bound is never below
// the number of tokens lex emits, so the token slice is allocated once.
func TestTokenBoundCoversLex(t *testing.T) {
	for _, sql := range []string{
		"",
		"SELECT * FROM orders",
		"SELECT * FROM orders, customers WHERE orders.ref = customers.id",
		"SELECT orders.id FROM orders WHERE orders.amount <= -1.5e-3 ORDER BY orders.id",
		"select * from orders group by orders.ref",
		"SELECT*FROM a,b WHERE a.x>=b.y AND a.z<10",
		"\x00\xff SELECT * FROM \t orders",
		"SELECT * FROM t0, t1, t2 WHERE t0.id = t1.fk AND t1.id = t2.fk AND t2.val < 412.5 ORDER BY t0.id",
	} {
		toks, err := lex(sql)
		if err != nil {
			continue
		}
		if b := tokenBound(sql); b < len(toks) {
			t.Errorf("tokenBound(%q) = %d, lex emits %d tokens", sql, b, len(toks))
		}
	}
}
