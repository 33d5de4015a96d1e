-- MVCC row versions through the single-statement surface: every DML
-- appends new versions and end-stamps superseded ones instead of mutating
-- in place, and every subsequent statement reads the table at its own
-- snapshot epoch. With one connection the visible content after each
-- statement must be exactly the serial state — superseded and deleted
-- versions never leak into a scan or a skyline, whether garbage
-- collection is allowed to reclaim dead versions or not.
-- Replayed under all harness configurations: rewrite, direct BNL, SFS
-- with pushdown off, and LESS.
CREATE TABLE flat (addr TEXT, rent INTEGER, dist INTEGER);
INSERT INTO flat VALUES
  ('alder', 900, 12),
  ('birch', 650, 25),
  ('cedar', 700, 18),
  ('dogwood', 820, 9);

-- Baseline skyline and full content.
SELECT addr FROM flat PREFERRING LOWEST(rent) AND LOWEST(dist)
  ORDER BY addr;
SELECT addr, rent, dist FROM flat ORDER BY addr;

-- Hold dead versions: with GC off, superseded versions stay in the heap
-- but must remain invisible to every new snapshot.
SET mvcc_gc = off;

-- UPDATE appends a new version of 'cedar' and end-stamps the old one.
UPDATE flat SET rent = 600 WHERE addr = 'cedar';
SELECT addr FROM flat PREFERRING LOWEST(rent) AND LOWEST(dist)
  ORDER BY addr;
SELECT addr, rent, dist FROM flat ORDER BY addr;

-- DELETE end-stamps without compacting; the row vanishes from the next
-- snapshot even though its version is still resident.
DELETE FROM flat WHERE addr = 'birch';
SELECT addr FROM flat PREFERRING LOWEST(rent) AND LOWEST(dist)
  ORDER BY addr;
SELECT addr, rent, dist FROM flat ORDER BY addr;

-- A dominating insert lands as a fresh version at the heap tail.
INSERT INTO flat VALUES ('elm', 500, 5);
SELECT addr FROM flat PREFERRING LOWEST(rent) AND LOWEST(dist)
  ORDER BY addr;

-- Re-enable GC: reclaiming the dead versions accumulated above must not
-- change anything a live snapshot can see.
SET mvcc_gc = on;
UPDATE flat SET dist = 4 WHERE addr = 'elm';
SELECT addr FROM flat PREFERRING LOWEST(rent) AND LOWEST(dist)
  ORDER BY addr;
SELECT addr, rent, dist FROM flat ORDER BY addr;

-- Update a row back and forth; only the final version is visible.
UPDATE flat SET rent = 1000 WHERE addr = 'alder';
UPDATE flat SET rent = 450 WHERE addr = 'alder';
SELECT addr FROM flat PREFERRING LOWEST(rent) AND LOWEST(dist)
  ORDER BY addr;
SELECT addr, rent, dist FROM flat ORDER BY addr;
