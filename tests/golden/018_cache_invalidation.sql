-- Cache invalidation under mutation: the same PREFERRING query repeated
-- around INSERT / DELETE / UPDATE / DROP+recreate must always reflect the
-- current table contents — the engine's plan cache is keyed by catalog
-- version and must never serve a stale preparation, and no cache holds
-- table contents. Replayed under all harness configurations (rewrite,
-- direct serial, sfs, less) with the plan cache on.
CREATE TABLE gear (name TEXT, price INTEGER, weight INTEGER);
INSERT INTO gear VALUES
  ('tent', 300, 4),
  ('tarp', 120, 2),
  ('bivy', 180, 1),
  ('hammock', 150, 2);

-- Cold run, then an identical warm run (plan cache hit): same result.
SELECT name FROM gear PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;
SELECT name FROM gear PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;

-- A new dominator must appear immediately.
INSERT INTO gear VALUES ('quilt', 100, 1);
SELECT name FROM gear PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;

-- Deleting it must resurrect the old skyline.
DELETE FROM gear WHERE name = 'quilt';
SELECT name FROM gear PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;

-- UPDATE bumps the table version too.
UPDATE gear SET price = 110 WHERE name = 'bivy';
SELECT name FROM gear PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;

-- DROP + recreate: a fresh table incarnation shows only its own rows,
-- even at the same name.
DROP TABLE gear;
CREATE TABLE gear (name TEXT, price INTEGER, weight INTEGER);
INSERT INTO gear VALUES ('solo', 90, 1), ('duo', 80, 3);
SELECT name FROM gear PREFERRING LOWEST(price) AND LOWEST(weight)
  ORDER BY name;

-- Stored-preference redefinition invalidates prepared plans (PDL expansion
-- is part of the preparation).
CREATE PREFERENCE pick AS LOWEST(price);
SELECT name FROM gear PREFERRING PREFERENCE pick ORDER BY name;
DROP PREFERENCE pick;
CREATE PREFERENCE pick AS HIGHEST(price);
SELECT name FROM gear PREFERRING PREFERENCE pick ORDER BY name;
