from wildinv.numth import factorize


def _trial_division(n):
    out, f = {}, 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division_up_to_1e5():
    for n in range(1, 10 ** 5 + 1):
        assert factorize(n) == _trial_division(n), n


def test_factorize_matches_trial_division_on_group_orders():
    # p^n - 1 for every field the 2^40 ambient guard admits with p <= 11
    for p in (2, 3, 5, 7, 11):
        n = 1
        while p ** n <= 2 ** 40:
            assert factorize(p ** n - 1) == _trial_division(p ** n - 1), (p, n)
            n += 1
