-- INSERT ... SELECT with a PREFERRING clause (paper 2.2.5) through every
-- evaluation path: the source query is planned exactly like a SELECT —
-- rewritten to standard SQL where the rewriter can express it, evaluated
-- in-engine where it cannot (or in bnl mode) — and its BMO rows are
-- drained into the target table.
CREATE TABLE shirt (id INTEGER, color TEXT, price INTEGER);
INSERT INTO shirt VALUES
  (1, 'red',    20),
  (2, 'green',  18),
  (3, 'blue',   22),
  (4, 'black',  19),
  (5, 'red',    25),
  (6, 'white',  21),
  (7, 'blue',   17);
CREATE TABLE shirt_pick (id INTEGER, color TEXT, price INTEGER);

-- EXPLICIT values that do not form one chain (red > green and
-- blue > white are incomparable pairs): the rewriter refuses and the
-- rewrite mode falls back to the in-engine BMO.
INSERT INTO shirt_pick SELECT * FROM shirt
  PREFERRING color EXPLICIT ('red' BETTER THAN 'green',
                             'blue' BETTER THAN 'white')
             AND LOWEST(price);
SELECT id, color, price FROM shirt_pick ORDER BY id;

CREATE TABLE car (id INTEGER, make TEXT, price INTEGER, power INTEGER);
INSERT INTO car VALUES
  (1, 'vw',   22000, 110),
  (2, 'vw',   15000,  90),
  (3, 'bmw',  30000, 200),
  (4, 'bmw',  25000, 150),
  (5, 'opel', 12000,  75),
  (6, 'opel', 14000,  90),
  (7, 'audi', 28000, 170),
  (8, 'audi', 19000, 125),
  (9, 'vw',   23000, 100),
  (10, 'opel', 16000, 70);
CREATE TABLE car_best (id INTEGER, make TEXT, price INTEGER);

-- GROUPING: the Pareto-best cars of each make; 9 (vw) and 10 (opel) are
-- dominated within their make.
INSERT INTO car_best SELECT id, make, price FROM car
  PREFERRING LOWEST(price) AND HIGHEST(power) GROUPING make;
SELECT id, make, price FROM car_best ORDER BY id;

CREATE TABLE car_near (id INTEGER, price INTEGER);

-- BUT ONLY: the quality filter runs on the BMO set before the insert.
INSERT INTO car_near (id, price) SELECT id, price FROM car
  PREFERRING price AROUND 21000
  BUT ONLY DISTANCE(price) <= 1500;
SELECT id, price FROM car_near ORDER BY id;
