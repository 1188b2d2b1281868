import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simax import BucketQueue


class NaiveMaxQueue:
    """Reference: linear scan over (arrival, key) pairs, FIFO within a key.

    decrease_key re-stamps the arrival order, matching a queue that moves the
    element to the back of its new bucket.
    """

    def __init__(self):
        self.entries = {}  # elem -> (key, arrival)
        self.clock = 0

    def __len__(self):
        return len(self.entries)

    def insert(self, elem, key):
        self.entries[elem] = (key, self.clock)
        self.clock += 1

    def decrease_key(self, elem, new_key):
        self.entries[elem] = (new_key, self.clock)
        self.clock += 1

    def delete(self, elem):
        del self.entries[elem]

    def find_max(self):
        if not self.entries:
            return None
        elem = min(self.entries, key=lambda e: (-self.entries[e][0], self.entries[e][1]))
        return elem, self.entries[elem][0]


def test_construction_and_empty_behavior():
    with pytest.raises(ValueError, match="num_keys"):
        BucketQueue(0)
    q = BucketQueue(4)
    assert len(q) == 0
    assert q.find_max() is None
    assert q.scan_steps == 0
    assert "a" not in q


def test_frozen_operation_trace_with_scan_counts():
    q = BucketQueue(5)
    q.insert("a", 3)
    q.insert("b", 3)
    q.insert("c", 1)
    assert len(q) == 3 and q.key_of("c") == 1
    assert q.find_max() == ("a", 3)  # FIFO among equal keys
    assert q.scan_steps == 0
    q.delete("a")
    assert q.find_max() == ("b", 3)
    assert q.scan_steps == 0
    q.decrease_key("b", 0)
    assert q.find_max() == ("c", 1)  # cursor walks 3 -> 2 -> 1
    assert q.scan_steps == 2
    q.delete("c")
    assert q.find_max() == ("b", 0)
    assert q.scan_steps == 3
    q.delete("b")
    assert q.find_max() is None
    assert q.scan_steps == 4  # 0 -> exhausted; total movement stays <= num_keys


def test_decreased_element_goes_to_the_back_of_its_bucket():
    q = BucketQueue(4)
    q.insert("d", 2)
    q.insert("e", 2)
    q.insert("f", 3)
    q.decrease_key("f", 2)  # joins behind d and e
    assert q.find_max() == ("d", 2)
    q.delete("d")
    assert q.find_max() == ("e", 2)
    q.delete("e")
    assert q.find_max() == ("f", 2)


def test_error_cases():
    q = BucketQueue(3)
    q.insert(1, 2)
    with pytest.raises(ValueError, match="already queued"):
        q.insert(1, 1)
    with pytest.raises(ValueError, match="out of range"):
        q.insert(2, 3)
    with pytest.raises(ValueError, match="out of range"):
        q.insert(2, -1)
    with pytest.raises(KeyError):
        q.decrease_key(99, 0)
    with pytest.raises(ValueError, match="only decrease"):
        q.decrease_key(1, 2)  # equal counts as non-decreasing
    with pytest.raises(ValueError, match="only decrease"):
        q.decrease_key(1, 5)
    with pytest.raises(ValueError, match="out of range"):
        q.decrease_key(1, -1)
    with pytest.raises(KeyError):
        q.delete(99)
    assert q.key_of(1) == 2  # failed operations leave the queue untouched
    assert q.find_max() == (1, 2)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_differential_against_naive_oracle(data):
    # one insert batch, then monotone traffic: the regime the scan bound is
    # stated for (late inserts may not exceed the current maximum key)
    num_keys = data.draw(st.integers(2, 24), label="num_keys")
    q = BucketQueue(num_keys)
    ref = NaiveMaxQueue()
    next_elem = 0
    for _ in range(data.draw(st.integers(1, 8), label="batch")):
        key = data.draw(st.integers(0, num_keys - 1), label="key")
        q.insert(next_elem, key)
        ref.insert(next_elem, key)
        next_elem += 1
    for _ in range(data.draw(st.integers(1, 60), label="ops")):
        live = list(ref.entries)
        if not live:
            break
        cur_max = ref.find_max()[1]
        op = data.draw(st.sampled_from(["insert", "find_max", "decrease", "delete"]), label="op")
        if op == "insert":
            key = data.draw(st.integers(0, cur_max), label="key")
            q.insert(next_elem, key)
            ref.insert(next_elem, key)
            next_elem += 1
        elif op == "decrease":
            elem = data.draw(st.sampled_from(live), label="elem")
            old = ref.entries[elem][0]
            if old == 0:
                continue
            new_key = data.draw(st.integers(0, old - 1), label="new_key")
            q.decrease_key(elem, new_key)
            ref.decrease_key(elem, new_key)
        elif op == "delete":
            elem = data.draw(st.sampled_from(live), label="elem")
            q.delete(elem)
            ref.delete(elem)
        else:
            assert q.find_max() == ref.find_max()
        assert len(q) == len(ref)
    assert q.find_max() == ref.find_max()
    assert q.scan_steps <= num_keys


def test_scan_steps_amortize_over_a_full_drain():
    n = 128
    q = BucketQueue(n)
    for i in range(n):
        q.insert(i, n - 1)
    # walk every element down to key 0 one step at a time, popping max each time
    while True:
        top = q.find_max()
        if top is None:
            break
        elem, key = top
        if key == 0:
            q.delete(elem)
        else:
            q.decrease_key(elem, key - 1)
    assert q.scan_steps <= n


def test_deleted_element_reinserted_into_its_bucket_goes_to_the_back():
    # its old entry still sits ahead of "b" in bucket 2; it must not count as live again
    q = BucketQueue(3)
    q.insert("a", 2)
    q.insert("b", 2)
    q.delete("a")
    q.insert("a", 2)
    assert q.find_max() == ("b", 2)
    q.delete("b")
    assert q.find_max() == ("a", 2)
    q.decrease_key("a", 1)
    q.insert("c", 1)
    q.delete("a")
    q.insert("a", 1)  # re-entering a lower bucket behind "c" as well
    assert q.find_max() == ("c", 1)
    assert len(q) == 2
